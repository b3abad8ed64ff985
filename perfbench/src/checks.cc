#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/herald_like.h"

namespace perfbench {
namespace {

/** Relative tolerance of the checks that compare sums the benchmark
 * forms in its own order with sums the program forms in its order. */
constexpr double kRelTol = 1e-12;

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

Reference::Reference(dnn::JobGroup group, accel::Platform platform)
    : group_(std::move(group)), platform_(std::move(platform))
{
    eval_ = std::make_unique<sched::MappingEvaluator>(group_, platform_,
                                                      model_);
    const int accels = platform_.numSubAccels();
    no_stall_.resize(static_cast<size_t>(group_.size()) * accels);
    for (int j = 0; j < group_.size(); ++j) {
        const dnn::Job& job = group_.jobs[j];
        flops_ += 2 * job.layer.macsPerSample() * job.batch;
        for (int a = 0; a < accels; ++a) {
            const cost::SubAccelConfig& cfg = platform_.subAccels[a];
            no_stall_[static_cast<size_t>(j) * accels + a] =
                model_.analyze(job.layer, job.batch, cfg)
                    .noStallSeconds(cfg);
        }
    }
    herald_fitness_ =
        eval_->fitness(baselines::HeraldLike::buildMapping(*eval_));
}

std::string
checkValidMapping(const sched::Mapping& m, int jobs, int accels)
{
    if (m.size() != jobs ||
        static_cast<int>(m.priority.size()) != jobs)
        return "mapping covers " + std::to_string(m.size()) + " of " +
               std::to_string(jobs) + " jobs";
    for (int j = 0; j < jobs; ++j) {
        if (m.accelSel[j] < 0 || m.accelSel[j] >= accels)
            return "job " + std::to_string(j) +
                   " assigned to missing sub-accelerator " +
                   std::to_string(m.accelSel[j]);
        if (!(m.priority[j] >= 0.0 && m.priority[j] < 1.0))
            return "job " + std::to_string(j) + " has priority " +
                   num(m.priority[j]);
    }
    return "";
}

std::string
checkFitness(const Reference& ref, const sched::Mapping& m, double reported)
{
    double f = ref.evaluator().fitness(m);
    if (f != reported)
        return "fitness " + num(reported) + " but reference re-evaluation " +
               num(f);
    return "";
}

std::string
checkThroughput(const Reference& ref, double throughput_gflops,
                double makespan_seconds)
{
    double expected =
        static_cast<double>(ref.flops()) / makespan_seconds / 1e9;
    if (!(std::fabs(throughput_gflops - expected) <=
          kRelTol * std::fabs(expected)))
        return "throughput " + num(throughput_gflops) +
               " GFLOP/s but FLOPs/makespan is " + num(expected);
    double peak = ref.platform().peakGflops();
    if (throughput_gflops > peak * (1.0 + kRelTol))
        return "throughput " + num(throughput_gflops) +
               " GFLOP/s exceeds the platform peak " + num(peak);
    return "";
}

std::string
checkMakespanBound(const Reference& ref, const sched::Mapping& m,
                   double makespan_seconds)
{
    std::vector<double> busy(ref.platform().numSubAccels(), 0.0);
    for (int j = 0; j < m.size(); ++j)
        busy[m.accelSel[j]] += ref.noStallSeconds(j, m.accelSel[j]);
    double bound = *std::max_element(busy.begin(), busy.end());
    if (makespan_seconds < bound * (1.0 - kRelTol))
        return "makespan " + num(makespan_seconds) +
               " s below the busiest core's no-stall sum " + num(bound);
    return "";
}

std::string
checkBudget(int64_t samples, int64_t budget, bool exact)
{
    if (exact ? samples != budget : (samples <= 0 || samples > budget))
        return std::to_string(samples) + " samples against a budget of " +
               std::to_string(budget);
    return "";
}

std::string
checkCount(const char* what, int64_t reported, int64_t derived)
{
    if (reported != derived)
        return std::string(what) + " " + std::to_string(reported) +
               " but the inputs give " + std::to_string(derived);
    return "";
}

std::string
checkNotShed(bool shed)
{
    return shed ? "request was shed" : "";
}

std::string
checkBeatsHerald(double quality_x_herald)
{
    if (!(quality_x_herald > 1.0))
        return "MAGMA's quality_x_herald " + num(quality_x_herald) +
               " is not above 1 (the paper's Table IV has MAGMA ahead of "
               "Herald-like)";
    return "";
}

std::vector<std::string>
checkResult(const Reference& ref, const sched::Mapping& m,
            double reported_fitness)
{
    std::string valid = checkValidMapping(m, ref.group().size(),
                                          ref.platform().numSubAccels());
    if (!valid.empty())
        return {valid};  // the other checks would index out of range
    double makespan = ref.evaluator().evaluate(m).makespanSeconds;
    return {checkFitness(ref, m, reported_fitness),
            checkThroughput(ref, reported_fitness, makespan),
            checkMakespanBound(ref, m, makespan)};
}

std::vector<std::string>
selfTest()
{
    dnn::WorkloadGenerator gen(7);
    Reference ref(gen.makeGroup(dnn::TaskType::Mix, 12),
                  accel::makeSetting(accel::Setting::S2, 16.0));
    const sched::MappingEvaluator& eval = ref.evaluator();
    sched::Mapping good = baselines::HeraldLike::buildMapping(eval);
    double fit = eval.fitness(good);
    double makespan = eval.evaluate(good).makespanSeconds;
    const int jobs = ref.group().size();
    const int accels = ref.platform().numSubAccels();

    std::vector<std::string> out;
    auto expect = [&](const char* what, const std::string& good_result,
                      const std::string& bad_result) {
        if (!good_result.empty())
            out.push_back(std::string(what) +
                          ": rejected a good result: " + good_result);
        if (bad_result.empty())
            out.push_back(std::string(what) +
                          ": accepted a corrupted result");
    };

    sched::Mapping dropped = good;
    dropped.accelSel.pop_back();
    dropped.priority.pop_back();
    expect("job dropped from a mapping",
           checkValidMapping(good, jobs, accels),
           checkValidMapping(dropped, jobs, accels));
    sched::Mapping missing = good;
    missing.accelSel[0] = accels;
    expect("job on a missing sub-accelerator",
           checkValidMapping(good, jobs, accels),
           checkValidMapping(missing, jobs, accels));
    expect("fitness one ulp off", checkFitness(ref, good, fit),
           checkFitness(ref, good,
                        std::nextafter(
                            fit, std::numeric_limits<double>::infinity())));
    expect("throughput not FLOPs/makespan",
           checkThroughput(ref, fit, makespan),
           checkThroughput(ref, fit, makespan * 1.001));
    expect("throughput above peak", checkThroughput(ref, fit, makespan),
           checkThroughput(ref, ref.platform().peakGflops() * 1.5,
                           static_cast<double>(ref.flops()) /
                               (ref.platform().peakGflops() * 1.5e9)));
    expect("makespan below the no-stall bound",
           checkMakespanBound(ref, good, makespan),
           checkMakespanBound(ref, good, makespan * 1e-3));
    expect("search over budget", checkBudget(500, 500, false),
           checkBudget(501, 500, false));
    expect("search short of an exact budget", checkBudget(500, 500, true),
           checkBudget(499, 500, true));
    expect("shed response", checkNotShed(false), checkNotShed(true));
    expect("wrong active-job count", checkCount("active jobs", 40, 40),
           checkCount("active jobs", 41, 40));
    expect("MAGMA behind Herald-like", checkBeatsHerald(1.05),
           checkBeatsHerald(1.0));
    for (const std::string& e : checkResult(ref, good, fit))
        if (!e.empty())
            out.push_back("good result rejected: " + e);
    return out;
}

}  // namespace perfbench
