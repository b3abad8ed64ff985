#ifndef MAGMA_PERFBENCH_CHECKS_H_
#define MAGMA_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/platform.h"
#include "common.h"
#include "cost/cost_model.h"
#include "dnn/workload.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace perfbench {

/**
 * What the benchmark knows about one problem independently of the
 * search that solved it: the reference MappingEvaluator (the object
 * kernel, built without the cost cache), the group's FLOPs summed from
 * its layers, every job's no-stall latency on every core straight from
 * the cost model, and Herald-like's mapping and fitness.
 */
class Reference {
  public:
    Reference(dnn::JobGroup group, accel::Platform platform);
    Reference(const Reference&) = delete;
    Reference& operator=(const Reference&) = delete;

    const dnn::JobGroup& group() const { return group_; }
    const accel::Platform& platform() const { return platform_; }
    const sched::MappingEvaluator& evaluator() const
    {
        return *eval_;
    }
    int64_t flops() const { return flops_; }
    double noStallSeconds(int job, int accel) const
    {
        return no_stall_[static_cast<size_t>(job) *
                             platform_.numSubAccels() +
                         accel];
    }
    double heraldFitness() const { return herald_fitness_; }

  private:
    dnn::JobGroup group_;
    accel::Platform platform_;
    cost::CostModel model_;
    std::unique_ptr<sched::MappingEvaluator> eval_;
    int64_t flops_ = 0;
    std::vector<double> no_stall_;
    double herald_fitness_ = 0.0;
};

/**
 * Output checks. Each returns "" when the output passes, else what is
 * wrong with it; a non-empty string fails the operation.
 */

/** Every job assigned exactly once to an existing sub-accelerator, with
 * a priority in [0, 1). */
std::string checkValidMapping(const sched::Mapping& m, int jobs,
                              int accels);

/** The reported fitness equals the reference evaluator's re-evaluation
 * bit for bit. */
std::string checkFitness(const Reference& ref,
                         const sched::Mapping& m, double reported);

/** Throughput = FLOPs summed from the layers / makespan, and at most the
 * platform's peak; `makespan` is the reported schedule's. */
std::string checkThroughput(const Reference& ref, double throughput_gflops,
                            double makespan_seconds);

/** The makespan is at least the largest per-core sum of no-stall
 * latency over the jobs the mapping queues on that core. */
std::string checkMakespanBound(const Reference& ref,
                               const sched::Mapping& m,
                               double makespan_seconds);

/** Samples spent: exactly `budget` when `exact`, else within (0,
 * budget]. */
std::string checkBudget(int64_t samples, int64_t budget, bool exact);

/** A count the program reports equals the count the benchmark derived. */
std::string checkCount(const char* what, int64_t reported,
                       int64_t derived);

/** Shed responses and thrown searches are failures. */
std::string checkNotShed(bool shed);

/** The paper's Table IV ordering: MAGMA's geometric-mean throughput over
 * Herald-like's on the same problems is above 1. */
std::string checkBeatsHerald(double quality_x_herald);

/** All four mapping checks on one result (valid, fitness, throughput,
 * makespan bound) against the reference's own re-simulation. */
std::vector<std::string> checkResult(const Reference& ref,
                                     const sched::Mapping& m,
                                     double reported_fitness);

/**
 * Feeds every check a good and a corrupted result — a job dropped from a
 * mapping, a fitness one ulp off, a throughput that does not match the
 * makespan, a makespan below the bound, a search over budget, a shed
 * response, a wrong active-job count, MAGMA behind Herald-like — and requires the good one to
 * pass and the corrupted one to be rejected. Returns what did not hold.
 */
std::vector<std::string> selfTest();

}  // namespace perfbench

#endif  // MAGMA_PERFBENCH_CHECKS_H_
