#include <algorithm>

#include "cost/cost_model.h"
#include "exec/cost_cache.h"
#include "lanes.h"
#include "sched/evaluator.h"
#include "sched/flat_eval.h"
#include "sched/job_analyzer.h"

namespace perfbench {
namespace {

/** Reference-kernel candidates per probe: the object path is slow, and a
 * few hundred calls already give a steady per-call time. */
constexpr size_t kRefCandidates = 500;

}  // namespace

void
LayerProbe::run(Context& ctx, const dnn::JobGroup& group,
                const accel::Platform& platform,
                const std::vector<sched::Mapping>& candidates)
{
    Spans::Scope scope(ctx.spans, "probe.layers", group.size());
    cost::CostModel model;
    const int accels = platform.numSubAccels();
    const double queries = static_cast<double>(group.size()) * accels;

    double sink = 0.0;
    double t = timed(ctx, "cost.query", [&] {
        for (const dnn::Job& job : group.jobs)
            for (const cost::SubAccelConfig& cfg : platform.subAccels)
                sink += model.analyze(job.layer, job.batch, cfg)
                            .noStallCycles;
    });
    costQueryUs.push_back(t * 1e6 / queries);

    sched::JobAnalyzer analyzer(model, nullptr);
    t = timed(ctx, "sched.table",
              [&] { sink += analyzer.analyze(group, platform).numJobs(); });
    tableMs.push_back(t * 1e3);
    tableQueries.push_back(static_cast<double>(analyzer.lastUniqueQueries()));

    // Hits only: the first pass fills any key the workload has not
    // already put into the process-wide cache.
    exec::CostCache& cache = exec::CostCache::global();
    auto probe_cache = [&] {
        for (const dnn::Job& job : group.jobs)
            for (const cost::SubAccelConfig& cfg : platform.subAccels)
                sink += cache.analyze(model, job.layer, job.batch, cfg)
                            .noStallCycles;
    };
    probe_cache();
    t = timed(ctx, "exec.cost_cache.probe", probe_cache);
    cacheHitUs.push_back(t * 1e6 / queries);

    sched::MappingEvaluator eval(group, platform, model);
    t = timed(ctx, "sched.flat.compile", [&] {
        sched::FlatEvaluator compiled(eval);
        sink += compiled.numJobs();
    });
    compileMs.push_back(t * 1e3);

    if (candidates.empty())
        return;
    sched::FlatEvaluator flat(eval);
    sched::EvalScratch scratch;
    std::vector<double> flat_fit(candidates.size());
    t = timed(ctx, "sched.flat.eval", [&] {
        for (size_t k = 0; k < candidates.size(); ++k)
            flat_fit[k] = flat.fitness(candidates[k], scratch);
    });
    flatEvalUs.push_back(t * 1e6 / static_cast<double>(candidates.size()));

    size_t n_ref = std::min(candidates.size(), kRefCandidates);
    std::vector<double> ref_fit(n_ref);
    t = timed(ctx, "sched.ref.eval", [&] {
        for (size_t k = 0; k < n_ref; ++k)
            ref_fit[k] = eval.fitness(candidates[k]);
    });
    refEvalUs.push_back(t * 1e6 / static_cast<double>(n_ref));
    for (size_t k = 0; k < n_ref; ++k)
        if (ref_fit[k] != flat_fit[k]) {
            ctx.runErrors.push_back(
                "flat and reference kernels disagree on a candidate");
            break;
        }
    if (!(sink == sink))
        ctx.runErrors.push_back("layer probe produced NaN");
}

void
LayerProbe::report(Metrics& out) const
{
    out["dnn.generate_ms"] = {median(generateMs), "ms"};
    out["cost.query_us"] = {median(costQueryUs), "us"};
    out["sched.table_ms"] = {median(tableMs), "ms"};
    out["sched.table_queries"] = {median(tableQueries), "count"};
    out["exec.cost_cache.hit_us"] = {median(cacheHitUs), "us"};
    out["sched.flat.compile_ms"] = {median(compileMs), "ms"};
    out["sched.flat.eval_us"] = {median(flatEvalUs), "us"};
    out["sched.ref.eval_us"] = {median(refEvalUs), "us"};
}

}  // namespace perfbench
