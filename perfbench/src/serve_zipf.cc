// serve-zipf: an open-loop Poisson arrival of MapRequests whose workloads
// are drawn Zipf(1.1) from a fixed universe, served by a MappingService
// with 3 worker lanes x 1 evaluation thread and the in-memory store, then
// the same request list submitted at once to measure capacity.

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "api/spec.h"
#include "checks.h"
#include "exec/cost_cache.h"
#include "lanes.h"
#include "obs/metrics.h"
#include "opt/warm_start.h"
#include "serve/fingerprint.h"
#include "serve/service.h"

namespace perfbench {
namespace {

constexpr int kUniverse = 24;
constexpr double kZipfExponent = 1.1;
constexpr int kRequests = 240;
/** Open-loop arrival rate; about a third of the service's capacity, so
 * queueing shows in the tail without a growing backlog. */
constexpr double kArrivalRps = 150.0;
constexpr int kWorkers = 3;
constexpr int64_t kColdBudget = 2000;  // service default (MapRequest)
constexpr int64_t kWarmBudget = kColdBudget / 4;
constexpr double kSystemBw = 16.0;
constexpr int kSetups = 5;
constexpr uint64_t kStream = 2;

/** The fixed universe: rank k's task, platform and group size are fixed
 * (the Zipf head is the same shape on every seed); the seed draws each
 * workload's jobs. */
std::vector<api::ProblemSpec>
universe(uint64_t seed)
{
    static const dnn::TaskType kTasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};
    std::mt19937_64 rng = inputRng(seed, kStream, 0);
    std::vector<api::ProblemSpec> out;
    for (int k = 0; k < kUniverse; ++k) {
        api::ProblemSpec p;
        p.task = kTasks[k % 4];
        p.setting = (k / 4) % 2 ? accel::Setting::S4 : accel::Setting::S2;
        p.systemBwGbps = kSystemBw;
        p.groupSize = 20 + 40 * ((k * 7) % 12) / 11;
        p.workloadSeed = rng();
        out.push_back(p);
    }
    return out;
}

struct Sent {
    int workload = 0;
    double dueSeconds = 0.0;  ///< offset from the round's start
    uint64_t searchSeed = 0;
};

/** One round's request list: Poisson arrivals, Zipf(1.1) workloads. */
std::vector<Sent>
requestList(uint64_t seed, int r)
{
    std::vector<double> cdf(kUniverse);
    double total = 0.0;
    for (int k = 0; k < kUniverse; ++k) {
        total += 1.0 / std::pow(k + 1.0, kZipfExponent);
        cdf[k] = total;
    }
    std::mt19937_64 rng = inputRng(seed, kStream, 1 + r);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::exponential_distribution<double> gap(kArrivalRps);
    std::vector<Sent> out;
    double t = 0.0;
    for (int i = 0; i < kRequests; ++i) {
        Sent s;
        double u = unit(rng) * total;
        s.workload = static_cast<int>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        s.workload = std::min(s.workload, kUniverse - 1);
        s.dueSeconds = t;
        t += gap(rng);
        s.searchSeed = rng();
        out.push_back(s);
    }
    return out;
}

class ServeZipf : public Lane {
  public:
    ServeZipf(Context& ctx, uint64_t seed)
        : Lane(ctx, seed), universe_(universe(seed))
    {}

    void round(int r) override
    {
        Spans::Scope round_span(ctx_.spans, "serve.round", r);
        std::vector<Sent> sent;
        std::unique_ptr<serve::MappingService> svc;
        // Every round's requests start from an empty cost cache, whatever
        // the other lanes left in it.
        exec::CostCache::global().clear();
        exec::CostCacheStats cache0 = exec::CostCache::global().stats();

        // Set-up: from the inputs to a service ready to search, taken
        // kSetups times (it is well under a millisecond).
        for (int k = 0; k < kSetups; ++k) {
            svc.reset();
            setup_.push_back(timed(ctx_, "serve.setup", [&] {
                sent = requestList(seed_, r);
                serve::ServiceConfig cfg;
                cfg.workers = kWorkers;
                cfg.threadsPerRequest = 1;
                cfg.registry = &registry_;
                svc = std::make_unique<serve::MappingService>(cfg);
            }));
        }

        // Open loop: send each request when due, whatever the backlog;
        // latency runs from the due time to the response's arrival.
        std::vector<std::future<serve::MapResponse>> fut(sent.size());
        std::vector<double> arrived(sent.size(), -1.0);
        std::vector<int> outstanding;
        auto collect = [&](double until) {
            do {
                if (!outstanding.empty()) {
                    double wait = std::min(until - now(), 250e-6);
                    if (wait > 0)
                        fut[outstanding.front()].wait_for(
                            std::chrono::duration<double>(wait));
                    double t = now();
                    std::erase_if(outstanding, [&](int i) {
                        if (fut[i].wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready)
                            return false;
                        arrived[i] = t;
                        return true;
                    });
                } else if (until > now()) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(until - now()));
                }
            } while (now() < until);
        };
        const double start = now() + 0.002;
        {
            Spans::Scope phase(ctx_.spans, "serve.open_loop");
            for (size_t i = 0; i < sent.size(); ++i) {
                double due = start + sent[i].dueSeconds;
                collect(due);
                lateMs_.push_back((now() - due) * 1e3);
                fut[i] = svc->submit(request(sent[i]));
                outstanding.push_back(static_cast<int>(i));
            }
            while (!outstanding.empty())
                collect(now() + 1e-3);
        }
        std::vector<serve::MapResponse> open(sent.size());
        std::vector<std::string> open_err(sent.size());
        for (size_t i = 0; i < sent.size(); ++i) {
            double due = start + sent[i].dueSeconds;
            latencyMs_.push_back((arrived[i] - due) * 1e3);
            ctx_.spans.add("serve.request", due, arrived[i], 2,
                           sent[i].workload);
            get(fut[i], open[i], open_err[i]);
        }

        // Capacity: the same list at once, against the warmed store.
        std::vector<serve::MapResponse> burst(sent.size());
        std::vector<std::string> burst_err(sent.size());
        {
            Spans::Scope phase(ctx_.spans, "serve.capacity");
            double t0 = now();
            for (size_t i = 0; i < sent.size(); ++i)
                fut[i] = svc->submit(request(sent[i]));
            for (size_t i = 0; i < sent.size(); ++i)
                get(fut[i], burst[i], burst_err[i]);
            capacityRps_.push_back(static_cast<double>(sent.size()) /
                                   (now() - t0));
        }
        svc->drain();
        serve::ServiceStats st = svc->stats();
        warm_ += static_cast<double>(st.warmServed);
        served_ += static_cast<double>(st.served);
        samples_ += static_cast<double>(st.samplesSpent);
        exec::CostCacheStats cache1 = exec::CostCache::global().stats();
        cacheHits_.push_back(static_cast<double>(cache1.hits - cache0.hits));
        cacheMisses_.push_back(
            static_cast<double>(cache1.misses - cache0.misses));

        for (size_t i = 0; i < sent.size(); ++i) {
            waitMs_.push_back(open[i].waitSeconds * 1e3);
            serviceMs_.push_back(open[i].serviceSeconds * 1e3);
            check("serve-zipf open-loop request", sent[i], open[i],
                  open_err[i]);
            check("serve-zipf capacity request", sent[i], burst[i],
                  burst_err[i]);
        }
        last_ = std::move(open);
        lastSent_ = std::move(sent);
        svc->stop();
        lastStore_ = std::move(svc);
    }

    void probe() override
    {
        Spans::Scope probe_span(ctx_.spans, "serve.probe");
        for (int w = 0; w < kUniverse; ++w) {
            const api::ProblemSpec& p = universe_[w];
            dnn::JobGroup group;
            layers_.generateMs.push_back(timed(ctx_, "dnn.generate", [&] {
                dnn::WorkloadGenerator gen(p.workloadSeed);
                group = gen.makeGroup(p.task, p.groupSize);
            }) * 1e3);
            serve::Fingerprint fp;
            const int reps = 20;
            double t = timed(ctx_, "serve.fingerprint", [&] {
                for (int k = 0; k < reps; ++k)
                    fp = serve::fingerprintOf(group, p);
            });
            fingerprintUs_.push_back(t * 1e6 / reps);
            serve::MappingStore& store = lastStore_->store();
            std::optional<serve::MappingStore::Hit> hit;
            t = timed(ctx_, "serve.store.lookup", [&] {
                for (int k = 0; k < reps; ++k)
                    hit = store.lookup(fp);
            });
            lookupUs_.push_back(t * 1e6 / reps);

            // Candidates: the served mapping of this workload and mutated
            // copies of it, as a warm search starts from.
            std::vector<sched::Mapping> candidates;
            for (size_t i = 0; i < lastSent_.size(); ++i)
                if (lastSent_[i].workload == w && !last_[i].shed &&
                    last_[i].best.size() == group.size()) {
                    magma::common::Rng rng(lastSent_[i].searchSeed);
                    candidates = opt::transfer::seedsAround(
                        last_[i].best, 200,
                        api::buildPlatform(p).numSubAccels(), rng);
                    if (hit && hit->exact) {
                        t = timed(ctx_, "serve.store.update", [&] {
                            for (int k = 0; k < reps; ++k)
                                store.update(fp, p.task, last_[i].best,
                                             group, last_[i].bestFitness,
                                             last_[i].samplesUsed);
                        });
                        updateUs_.push_back(t * 1e6 / reps);
                    }
                    break;
                }
            layers_.run(ctx_, group, api::buildPlatform(p), candidates);
        }
    }

    void endToEnd(Metrics& out) const override
    {
        out["setup_s"] = {median(setup_), "s"};
        out["request_p50_ms"] = {quantile(latencyMs_, 0.50), "ms"};
        out["serve_capacity_rps"] = {median(capacityRps_), "req/s"};
        out["quality_x_herald"] = {geomean(quality_), "x"};
    }

    void perLayer(Metrics& out) const override
    {
        layers_.report(out);
        out["request_p95_ms"] = {quantile(latencyMs_, 0.95), "ms"};
        out["exec.cost_cache.hits"] = {mean(cacheHits_), "count"};
        out["exec.cost_cache.misses"] = {mean(cacheMisses_), "count"};
        out["serve.wait_ms_p50"] = {quantile(waitMs_, 0.50), "ms"};
        out["serve.wait_ms_p95"] = {quantile(waitMs_, 0.95), "ms"};
        out["serve.service_ms_p50"] = {quantile(serviceMs_, 0.50), "ms"};
        out["serve.service_ms_p95"] = {quantile(serviceMs_, 0.95), "ms"};
        out["serve.warm_rate"] = {served_ > 0 ? warm_ / served_ : 0.0,
                                  "ratio"};
        out["serve.samples_per_request"] = {
            served_ > 0 ? samples_ / served_ : 0.0, "count"};
        out["serve.fingerprint_us"] = {median(fingerprintUs_), "us"};
        out["serve.store.lookup_us"] = {median(lookupUs_), "us"};
        out["serve.store.update_us"] = {median(updateUs_), "us"};
        out["serve.generator_late_ms_p95"] = {quantile(lateMs_, 0.95),
                                              "ms"};
    }

  private:
    serve::MapRequest request(const Sent& s) const
    {
        serve::MapRequest req;
        req.problem = universe_[s.workload];
        req.search.seed = s.searchSeed;
        return req;
    }

    static void get(std::future<serve::MapResponse>& f,
                    serve::MapResponse& resp, std::string& err)
    {
        try {
            resp = f.get();
        } catch (const std::exception& e) {
            err = std::string("request threw: ") + e.what();
        }
    }

    /** The reference for a universe workload, built once per run. */
    const Reference& reference(int w)
    {
        auto it = refs_.find(w);
        if (it == refs_.end()) {
            const api::ProblemSpec& p = universe_[w];
            dnn::WorkloadGenerator gen(p.workloadSeed);
            it = refs_.emplace(w, std::make_unique<Reference>(
                                      gen.makeGroup(p.task, p.groupSize),
                                      api::buildPlatform(p)))
                     .first;
        }
        return *it->second;
    }

    void check(const char* what, const Sent& s,
               const serve::MapResponse& resp, const std::string& err)
    {
        if (!err.empty() || resp.shed) {
            ctx_.ledger.op(what, {err, checkNotShed(resp.shed)});
            return;
        }
        const Reference& ref = reference(s.workload);
        std::vector<std::string> errs =
            checkResult(ref, resp.best, resp.bestFitness);
        errs.push_back(checkBudget(resp.samplesUsed,
                                   resp.warmStart ? kWarmBudget
                                                  : kColdBudget,
                                   false));
        ctx_.ledger.op(what, errs);
        if (errs[0].empty())
            quality_.push_back(resp.bestFitness / ref.heraldFitness());
    }

    std::vector<api::ProblemSpec> universe_;
    std::map<int, std::unique_ptr<Reference>> refs_;
    std::vector<double> setup_, latencyMs_, capacityRps_, quality_;

    // Service telemetry goes to a registry of the lane's own, declared
    // before the last service so it outlives it.
    obs::MetricsRegistry registry_;
    std::vector<Sent> lastSent_;
    std::vector<serve::MapResponse> last_;
    std::unique_ptr<serve::MappingService> lastStore_;

    LayerProbe layers_;
    std::vector<double> cacheHits_, cacheMisses_, waitMs_, serviceMs_,
        fingerprintUs_, lookupUs_, updateUs_, lateMs_;
    double warm_ = 0.0, served_ = 0.0, samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Lane>
makeServeZipf(Context& ctx, uint64_t seed)
{
    return std::make_unique<ServeZipf>(ctx, seed);
}

}  // namespace perfbench
