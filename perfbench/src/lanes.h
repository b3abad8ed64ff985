#ifndef MAGMA_PERFBENCH_LANES_H_
#define MAGMA_PERFBENCH_LANES_H_

#include <memory>
#include <string>
#include <vector>

#include "accel/platform.h"
#include "common.h"
#include "dnn/workload.h"
#include "sched/mapping.h"

namespace perfbench {

/**
 * One workload's operations. A round is a fixed set of operations on
 * inputs drawn from (seed, round index) — its own set-up included — so a
 * run attempts whole rounds and its failed share does not depend on how
 * many rounds the host fitted into the run.
 */
class Lane {
  public:
    /** `seed` draws the lane's inputs. */
    Lane(Context& ctx, uint64_t seed) : ctx_(ctx), seed_(seed) {}
    virtual ~Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /** Run round `r`: set-up, operations, output checks. */
    virtual void round(int r) = 0;

    /** Rounds a run must complete when this is the workload's own lane,
     * however long they take. */
    virtual int minRounds() const { return 1; }

    /** Time the layers on the inputs and outputs of the last round
     * (traced run only); every timing is a span. */
    virtual void probe() = 0;

    /** End-to-end metrics over every round run so far. */
    virtual void endToEnd(Metrics& out) const = 0;

    /** Per-layer metrics over every probe run so far. */
    virtual void perLayer(Metrics& out) const = 0;

  protected:
    Context& ctx_;
    const uint64_t seed_;
};

std::unique_ptr<Lane> makePaperSearch(Context& ctx, uint64_t seed);
std::unique_ptr<Lane> makeServeZipf(Context& ctx, uint64_t seed);
std::unique_ptr<Lane> makeDynChurn(Context& ctx, uint64_t seed);

/**
 * Layer timings shared by the lanes, each on the lane's own problems:
 * the cost model per query, the Job Analysis Table without cache, the
 * process-wide cost cache per hit, the flat compile, and the flat and
 * reference kernels per candidate. Accumulates across calls.
 */
struct LayerProbe {
    std::vector<double> costQueryUs, tableMs, tableQueries, cacheHitUs,
        compileMs, flatEvalUs, refEvalUs, generateMs;

    /** Probe one problem; `candidates` are mappings the workload itself
     * sampled or served. Adds a run error on a flat/reference mismatch. */
    void run(Context& ctx, const dnn::JobGroup& group,
             const accel::Platform& platform,
             const std::vector<sched::Mapping>& candidates);

    void report(Metrics& out) const;
};

}  // namespace perfbench

#endif  // MAGMA_PERFBENCH_LANES_H_
