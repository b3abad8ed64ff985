// magma_perfbench: runs one benchmark workload for a fixed time and prints
// its metrics, the operations ledger and, as the last line, one JSON
// object. See ../README.md for the workloads, metrics and checks.
//
//   magma_perfbench --workload paper-search|serve-zipf|dyn-churn
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   magma_perfbench --self-test

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.h"
#include "common.h"
#include "lanes.h"
#include "obs/metrics.h"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"paper-search", "serve-zipf", "dyn-churn"};
/** Input seed of the rounds run from the other workloads' lanes. */
constexpr uint64_t kOtherLaneSeed = 0;
/** Share of a run's time given to the workload's own lane. */
constexpr double kOwnShare = 0.6;

/** The metric names BENCHMARK.json declares; a run must print exactly
 * these (end-to-end untraced, per-layer traced). */
const char* const kEndToEnd[] = {
    "setup_s",          "search_ms_t1",       "a2c_samples_per_s",
    "ppo2_samples_per_s", "request_p50_ms",   "serve_capacity_rps",
    "remap_p50_ms",     "remap_p90_ms",       "quality_x_herald",
    "peak_rss_mb"};
// search_ms_t4 and request_p95_ms are end-to-end quantities, listed with
// the per-layer metrics because their spread across runs on a shared
// 4-vCPU host exceeds any usable bound (see README.md).
const char* const kPerLayer[] = {
    "search_ms_t4",              "request_p95_ms",
    "dnn.generate_ms",           "cost.query_us",
    "sched.table_ms",            "sched.table_queries",
    "exec.cost_cache.hit_us",    "exec.cost_cache.hits",
    "exec.cost_cache.misses",    "sched.flat.compile_ms",
    "sched.flat.eval_us",        "sched.ref.eval_us",
    "exec.batch_ms_t1",          "exec.batch_ms_t4",
    "exec.dispatch_us",          "opt.overhead_ms_t1",
    "opt.overhead_ms_t4",        "opt.samples",
    "opt.generations",           "rl.eval_share",
    "rl.mlp.forward_us",         "rl.mlp.backward_us",
    "serve.wait_ms_p50",         "serve.wait_ms_p95",
    "serve.service_ms_p50",      "serve.service_ms_p95",
    "serve.warm_rate",           "serve.samples_per_request",
    "serve.fingerprint_us",      "serve.store.lookup_us",
    "serve.store.update_us",     "serve.generator_late_ms_p95",
    "dyn.step_ms.previous",      "dyn.step_ms.store",
    "dyn.step_ms.cold",          "dyn.samples_per_event",
    "dyn.transfer_us",           "dyn.reconfig_us",
    "obs.trace_overhead"};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int k = 0; k < 3; ++k)
            __get_cpuid(0x80000002 + k, &regs[4 * k], &regs[4 * k + 1],
                        &regs[4 * k + 2], &regs[4 * k + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "magma_perfbench: %s\n"
                 "usage: magma_perfbench --workload "
                 "paper-search|serve-zipf|dyn-churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       magma_perfbench --self-test\n",
                 msg);
    return 2;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Check the metric set against the declared names; returns problems. */
std::vector<std::string>
checkNames(const Metrics& m, const char* const* names, size_t count)
{
    std::vector<std::string> out;
    std::set<std::string> want(names, names + count);
    for (const std::string& n : want) {
        auto it = m.find(n);
        if (it == m.end())
            out.push_back("metric " + n + " missing");
        else if (!std::isfinite(it->second.value))
            out.push_back("metric " + n + " is not finite");
    }
    for (const auto& [n, v] : m)
        if (!want.count(n))
            out.push_back("metric " + n + " not declared");
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, trace_out;
    long long seed = -1;
    int seconds = -1, trace = -1;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--self-test") {
            self_test = true;
        } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                    a == "--trace" || a == "--trace-out") &&
                   (v = next())) {
            char* end = nullptr;
            if (a == "--workload") {
                workload = v;
            } else if (a == "--trace-out") {
                trace_out = v;
            } else {
                long long n = std::strtoll(v, &end, 10);
                if (*v == '\0' || *end != '\0' || n < 0)
                    return usage(("bad value for " + a).c_str());
                if (a == "--seed")
                    seed = n;
                else if (a == "--seconds")
                    seconds = n > 3600 ? -1 : static_cast<int>(n);
                else
                    trace = n <= 1 ? static_cast<int>(n) : -1;
            }
        } else {
            return usage(("unknown or incomplete argument " + a).c_str());
        }
    }

    std::printf("host: cpu \"%s\", %u hardware threads, compiler %s, "
                "build %s\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    std::vector<std::string> self = selfTest();
    if (self_test) {
        for (const std::string& e : self)
            std::printf("self-test FAILED: %s\n", e.c_str());
        std::printf("self-test: %s\n", self.empty() ? "every corrupted "
                                                      "result rejected"
                                                    : "FAILED");
        return self.empty() ? 0 : 1;
    }

    int main_lane = -1;
    for (int k = 0; k < 3; ++k)
        if (workload == kWorkloads[k])
            main_lane = k;
    if (main_lane < 0)
        return usage("--workload must be paper-search, serve-zipf or "
                     "dyn-churn");
    if (seed < 0 || seconds < 1 || trace < 0)
        return usage("--seed, --seconds (1..3600) and --trace (0|1) are "
                     "required");
    if (trace_out.empty())
        trace_out = ".bench_build/perfbench-trace-" + workload + ".json";

    // The program's default observability level, pinned so an inherited
    // MAGMA_METRICS cannot change what is measured.
    obs::setMetricsLevel(obs::MetricsLevel::Counters);

    const bool traced = trace == 1;
    Context ctx;
    for (const std::string& e : self)
        ctx.runErrors.push_back("self-test: " + e);
    // The workload's own lane draws its inputs from --seed. The other two
    // lanes repeat their round 0 on fixed inputs, so the metrics a
    // workload reports from another workload's lane measure the same work
    // in every run, however many of their rounds the run fitted in.
    std::vector<std::unique_ptr<Lane>> lanes;
    auto input_seed = [&](int k) {
        return k == main_lane ? static_cast<uint64_t>(seed) : kOtherLaneSeed;
    };
    lanes.push_back(makePaperSearch(ctx, input_seed(0)));
    lanes.push_back(makeServeZipf(ctx, input_seed(1)));
    lanes.push_back(makeDynChurn(ctx, input_seed(2)));
    Lane& lane = *lanes[main_lane];

    // The three lanes' rounds, interleaved until the time is up: the
    // workload's own lane gets kOwnShare of the time and the two others
    // the rest, so every run reports every metric and every lane samples
    // the host across the whole run. The next round goes to the lane
    // furthest behind its share (ties to the own lane). Past the time,
    // rounds go only to a lane short of its minimum: one round for the
    // other lanes, minRounds() for the own lane.
    const double t0 = now();
    double traced_s = 0.0, untraced_s = 0.0;
    double spent[3] = {0.0, 0.0, 0.0};
    int rounds[3] = {0, 0, 0};
    const int order[3] = {main_lane, (main_lane + 1) % 3, (main_lane + 2) % 3};
    auto share = [&](int k) {
        return k == main_lane ? kOwnShare : (1.0 - kOwnShare) / 2.0;
    };
    auto short_of_minimum = [&](int k) {
        return rounds[k] < (k == main_lane ? lane.minRounds() : 1);
    };
    for (;;) {
        const bool over = now() - t0 >= seconds;
        int k = -1;
        for (int c : order)
            if ((!over || short_of_minimum(c)) &&
                (k < 0 || spent[c] / share(c) < spent[k] / share(k)))
                k = c;
        if (k < 0)
            break;
        const int r = k == main_lane ? rounds[k] : 0;
        double start = now();
        if (!traced) {
            lanes[k]->round(r);
        } else {
            // The same round untraced and traced, in alternating order,
            // gives the cost of observing; then the layer probes.
            for (int pass = 0; pass < 2; ++pass) {
                bool on = (pass == 0) == (rounds[k] % 2 == 1);
                ctx.spans.enabled = on;
                double t = now();
                lanes[k]->round(r);
                (on ? traced_s : untraced_s) += now() - t;
            }
            ctx.spans.enabled = true;
            lanes[k]->probe();
        }
        spent[k] += now() - start;
        ++rounds[k];
    }
    const double wall = now() - t0;

    Metrics metrics;
    std::vector<std::string> problems = ctx.runErrors;
    if (main_lane == 0) {
        Metrics own;
        lane.endToEnd(own);
        std::string e = checkBeatsHerald(own["quality_x_herald"].value);
        if (!e.empty())
            problems.push_back(e);
    }
    if (!traced) {
        for (int k = 0; k < 3; ++k)
            if (k != main_lane)
                lanes[k]->endToEnd(metrics);
        lane.endToEnd(metrics);
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        metrics["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0,
                                  "MB"};
        for (std::string& e :
             checkNames(metrics, kEndToEnd, std::size(kEndToEnd)))
            problems.push_back(std::move(e));
    } else {
        for (int k = 0; k < 3; ++k)
            if (k != main_lane)
                lanes[k]->perLayer(metrics);
        lane.perLayer(metrics);
        metrics["obs.trace_overhead"] = {traced_s / untraced_s, "x"};
        for (std::string& e :
             checkNames(metrics, kPerLayer, std::size(kPerLayer)))
            problems.push_back(std::move(e));
        std::string err = ctx.spans.write(trace_out,
                                          "magma_perfbench " + workload);
        if (!err.empty())
            problems.push_back(err);
        else
            std::printf("trace: %zu spans written to %s and reparsed\n",
                        ctx.spans.all().size(), trace_out.c_str());
    }

    std::printf("workload %s, seed %lld, %.3f s, rounds: paper-search %d, "
                "serve-zipf %d, dyn-churn %d%s\n",
                workload.c_str(), seed, wall, rounds[0], rounds[1],
                rounds[2], traced ? " (traced)" : "");
    for (const auto& [name, m] : metrics)
        std::printf("  %-30s %16.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("operations: %lld attempted, %lld failed\n",
                static_cast<long long>(ctx.ledger.attempted),
                static_cast<long long>(ctx.ledger.failed));
    for (const std::string& msg : ctx.ledger.messages)
        std::printf("  failed: %s\n", msg.c_str());
    for (const std::string& p : problems)
        std::printf("  check failed: %s\n", p.c_str());

    bool correct = problems.empty() && ctx.ledger.failed == 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(ctx.ledger.attempted) +
                       ", \"failed\": " + std::to_string(ctx.ledger.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        json += (first ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " +
                jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
