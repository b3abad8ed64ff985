// dyn-churn: a seeded arrive/depart/swap trace on S4 replayed through
// dyn::EventEngine at 1 thread, cold budget 10 000 and remap budget 2 500,
// with one drain-and-return so the store tier fires; the replay is run
// again at 4 threads and must match event for event.

#include <algorithm>
#include <map>
#include <memory>

#include "checks.h"
#include "dyn/engine.h"
#include "dyn/reconfig.h"
#include "dyn/trace.h"
#include "lanes.h"
#include "opt/warm_start.h"
#include "serve/mapping_store.h"

namespace perfbench {
namespace {

constexpr int64_t kColdBudget = 10000;
constexpr int64_t kRemapBudget = kColdBudget / 4;
constexpr int kMinActive = 30;
constexpr int kMaxActive = 100;
constexpr int kEvents = 112;
constexpr int kWalkBeforeDrain = 50;
constexpr double kSystemBw = 16.0;
constexpr int kSetups = 5;
constexpr uint64_t kStream = 3;
constexpr uint64_t kShapeStream = 4;
/** Every tenth event's group is probed layer by layer. */
constexpr size_t kProbeEvery = 10;

/** The trace's bundles as the benchmark tracks them, apart from the
 * engine: names, generations and job counts in insertion order. */
struct Bundle {
    std::string name;
    int gen = 0;
    dnn::TaskType task = dnn::TaskType::Mix;
    int jobs = 0;
    uint64_t seed = 0;
};

int
activeJobs(const std::vector<Bundle>& live)
{
    int n = 0;
    for (const Bundle& b : live)
        n += b.jobs;
    return n;
}

/**
 * A trace of kEvents events that keeps 30-100 jobs active, apart from its
 * opening ramp and one drain-and-return after kWalkBeforeDrain walk
 * steps. The shape — event kinds, bundle sizes, which bundle departs or
 * swaps — depends on the round only, so the active-job profile (what a
 * remap's cost scales with) is the same on every seed; the seed draws
 * each bundle's task and jobs.
 */
dyn::WorkloadTrace
makeTrace(uint64_t seed, int r)
{
    static const dnn::TaskType kTasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};
    std::mt19937_64 shape = inputRng(0, kShapeStream, r);
    std::mt19937_64 rng = inputRng(seed, kStream, r);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(shape);
    };
    auto task = [&] {
        return kTasks[std::uniform_int_distribution<int>(0, 3)(rng)];
    };
    dyn::WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S4;
    trace.base.systemBwGbps = kSystemBw;
    std::vector<Bundle> live;
    int next = 0;
    double t = 0.0;
    auto emit = [&](dyn::EventKind kind, const Bundle& b) {
        dyn::WorkloadEvent e;
        e.timeSeconds = t;
        t += 0.25;
        e.kind = kind;
        e.bundle = b.name;
        e.task = b.task;
        e.jobs = b.jobs;
        e.seed = b.seed;
        trace.events.push_back(e);
    };
    auto arrive = [&](int jobs) {
        Bundle b{"b", 0, task(), jobs, rng()};
        b.name += std::to_string(next++);
        live.push_back(b);
        emit(dyn::EventKind::Arrive, b);
    };
    auto ramp = [&] {
        while (activeJobs(live) < kMinActive)
            arrive(pick(8, 20));
    };
    auto walk = [&](size_t until) {
        while (trace.events.size() < until) {
            int active = activeJobs(live);
            int kind = pick(0, 2);
            int n = pick(6, 20);
            size_t at = static_cast<size_t>(pick(0, live.size() - 1));
            if (kind == 0 && active + n <= kMaxActive) {
                arrive(n);
            } else if (kind == 1 && active - live[at].jobs >= kMinActive) {
                emit(dyn::EventKind::Depart, live[at]);
                live.erase(live.begin() + at);
            } else {
                int jobs = std::clamp(n, kMinActive - active + live[at].jobs,
                                      kMaxActive - active + live[at].jobs);
                live[at].jobs = jobs;
                live[at].task = task();
                live[at].seed = rng();
                emit(dyn::EventKind::Swap, live[at]);
            }
        }
    };
    ramp();
    walk(trace.events.size() + kWalkBeforeDrain);
    while (!live.empty()) {
        emit(dyn::EventKind::Depart, live.front());
        live.erase(live.begin());
    }
    ramp();
    walk(kEvents);
    trace.validate();
    return trace;
}

/** One event's active group, rebuilt by the benchmark from the trace
 * (dnn::WorkloadGenerator per bundle, concatenated in insertion order),
 * with each job's identity. */
struct EventGroup {
    dnn::JobGroup group;
    std::vector<std::string> ids;
};

/** The groups after every event. Swapped-in jobs are drawn from the
 * event seed xor 0x5a5a5a5a, as dyn::EventEngine draws them. */
std::vector<EventGroup>
eventGroups(const dyn::WorkloadTrace& trace)
{
    std::vector<std::pair<Bundle, std::vector<dnn::Job>>> live;
    std::vector<EventGroup> out;
    for (const dyn::WorkloadEvent& ev : trace.events) {
        auto it = std::find_if(live.begin(), live.end(), [&](auto& b) {
            return b.first.name == ev.bundle;
        });
        if (ev.kind == dyn::EventKind::Arrive) {
            dnn::WorkloadGenerator gen(ev.seed);
            live.push_back({Bundle{ev.bundle, 0, ev.task, ev.jobs, ev.seed},
                            gen.makeGroup(ev.task, ev.jobs).jobs});
        } else if (ev.kind == dyn::EventKind::Depart) {
            live.erase(it);
        } else {
            dnn::WorkloadGenerator gen(ev.seed ^ 0x5a5a5a5aULL);
            it->second = gen.makeGroup(ev.task, ev.jobs).jobs;
            it->first.jobs = ev.jobs;
            ++it->first.gen;
        }
        EventGroup g;
        g.group.task = trace.base.task;
        for (const auto& [b, jobs] : live)
            for (size_t i = 0; i < jobs.size(); ++i) {
                g.group.jobs.push_back(jobs[i]);
                g.group.jobs.back().id = g.group.size() - 1;
                g.ids.push_back(b.name + '@' + std::to_string(b.gen) + '#' +
                                std::to_string(i));
            }
        out.push_back(std::move(g));
    }
    return out;
}

bool
sameRecord(const dyn::EventRecord& a, const dyn::EventRecord& b)
{
    return a.activeJobs == b.activeJobs && a.source == b.source &&
           a.budget == b.budget && a.samplesUsed == b.samplesUsed &&
           a.fitness == b.fitness && a.makespanSeconds == b.makespanSeconds &&
           a.steadyMakespanSeconds == b.steadyMakespanSeconds &&
           a.mapping == b.mapping &&
           a.charge.totalStallSeconds == b.charge.totalStallSeconds;
}

class DynChurn : public Lane {
  public:
    using Lane::Lane;

    void round(int r) override
    {
        Spans::Scope round_span(ctx_.spans, "dyn.round", r);
        dyn::WorkloadTrace trace;
        serve::MappingStore store;
        std::unique_ptr<dyn::EventEngine> engine;
        dyn::DynConfig cfg;
        // Set-up: from the inputs to an engine ready to step, taken
        // kSetups times (it is well under a millisecond).
        for (int k = 0; k < kSetups; ++k) {
            engine.reset();
            setup_.push_back(timed(ctx_, "dyn.setup", [&] {
                trace = makeTrace(seed_, r);
                cfg.search.sampleBudget = kColdBudget;
                cfg.search.seed = inputRng(seed_, kStream, 1000 + r)();
                cfg.search.threads = 1;
                cfg.remapBudget = kRemapBudget;
                cfg.store = &store;
                engine = std::make_unique<dyn::EventEngine>(cfg);
                engine->reset(trace.base);
            }));
        }

        std::vector<dyn::EventRecord> recs;
        std::vector<int> engine_active;
        for (const dyn::WorkloadEvent& ev : trace.events) {
            dyn::EventRecord rec;
            double t = timed(ctx_, "dyn.step", [&] { rec = engine->step(ev); });
            stepMs_.push_back(t * 1e3);
            if (rec.activeJobs > 0)
                stepBySource_[dyn::remapSourceName(rec.source)].push_back(
                    t * 1e3);
            engine_active.push_back(engine->activeJobs());
            recs.push_back(std::move(rec));
        }

        // The same trace at 4 threads, against a store of its own.
        serve::MappingStore store4;
        dyn::DynConfig cfg4 = cfg;
        cfg4.search.threads = 4;
        cfg4.store = &store4;
        dyn::DynResult t4;
        timed(ctx_, "dyn.replay_t4",
              [&] { t4 = dyn::EventEngine(cfg4).replay(trace); });

        std::vector<EventGroup> groups = eventGroups(trace);
        const accel::Platform platform =
            accel::makeSetting(accel::Setting::S4, kSystemBw);
        bool after_drain = false;
        for (size_t i = 0; i < recs.size(); ++i) {
            const dyn::EventRecord& rec = recs[i];
            const EventGroup& g = groups[i];
            std::vector<std::string> errs;
            errs.push_back(
                checkCount("active jobs", rec.activeJobs, g.group.size()));
            errs.push_back(checkCount("engine active jobs", engine_active[i],
                                      g.group.size()));
            if (i >= t4.records.size() || !sameRecord(rec, t4.records[i]))
                errs.push_back("4-thread replay differs at this event");
            if (rec.activeJobs == 0) {
                after_drain = true;
            } else if (errs[0].empty()) {
                Reference ref(g.group, platform);
                for (std::string& e : checkResult(ref, rec.mapping,
                                                  rec.fitness))
                    errs.push_back(std::move(e));
                if (checkValidMapping(rec.mapping, g.group.size(),
                                      platform.numSubAccels())
                        .empty() &&
                    ref.evaluator().evaluate(rec.mapping).makespanSeconds !=
                        rec.steadyMakespanSeconds)
                    errs.push_back("steady makespan differs from the "
                                   "reference re-simulation");
                bool cold = rec.source == dyn::RemapSource::Cold;
                errs.push_back(checkCount(
                    "budget", rec.budget, cold ? kColdBudget : kRemapBudget));
                errs.push_back(
                    checkBudget(rec.samplesUsed, rec.budget, false));
                if (after_drain && rec.source != dyn::RemapSource::Store)
                    errs.push_back("first remap after the drain was " +
                                   dyn::remapSourceName(rec.source) +
                                   ", not the store tier");
                after_drain = false;
                quality_.push_back(rec.fitness / ref.heraldFitness());
                samples_.push_back(static_cast<double>(rec.samplesUsed));
            }
            ctx_.ledger.op("dyn-churn event " + std::to_string(i), errs);
        }
        lastRecs_ = std::move(recs);
        lastGroups_ = std::move(groups);
        lastTrace_ = std::move(trace);
    }

    void probe() override
    {
        Spans::Scope probe_span(ctx_.spans, "dyn.probe");
        const accel::Platform platform =
            accel::makeSetting(accel::Setting::S4, kSystemBw);
        dyn::ReconfigSpec spec;
        for (size_t i = 1; i < lastRecs_.size(); ++i) {
            const dyn::EventRecord& prev = lastRecs_[i - 1];
            const dyn::EventRecord& rec = lastRecs_[i];
            const EventGroup& before = lastGroups_[i - 1];
            const EventGroup& g = lastGroups_[i];
            if (rec.activeJobs == 0 || prev.activeJobs == 0)
                continue;
            std::map<std::string, int> prev_index;
            std::vector<std::pair<std::string, int>> placement;
            for (size_t j = 0; j < before.ids.size(); ++j) {
                prev_index[before.ids[j]] = static_cast<int>(j);
                placement.emplace_back(before.ids[j], prev.mapping.accelSel[j]);
            }
            std::vector<int> match(g.ids.size(), -1);
            for (size_t j = 0; j < g.ids.size(); ++j)
                if (auto it = prev_index.find(g.ids[j]);
                    it != prev_index.end())
                    match[j] = it->second;
            magma::common::Rng rng(i);
            sched::Mapping adapted;
            double t = timed(ctx_, "dyn.transfer", [&] {
                adapted = opt::transfer::adaptMatched(
                    prev.mapping, before.group, g.group, match,
                    platform.numSubAccels(), rng);
            });
            transferUs_.push_back(t * 1e6);
            t = timed(ctx_, "dyn.reconfig", [&] {
                dyn::computeReconfig(placement, g.ids, g.group, rec.mapping,
                                     kSystemBw, spec);
            });
            reconfigUs_.push_back(t * 1e6);
            if (i % kProbeEvery == 0)
                layers_.run(ctx_, g.group, platform,
                            opt::transfer::seedsAround(
                                rec.mapping, 200, platform.numSubAccels(),
                                rng));
        }
        for (const dyn::WorkloadEvent& ev : lastTrace_.events)
            if (ev.kind != dyn::EventKind::Depart)
                layers_.generateMs.push_back(
                    timed(ctx_, "dnn.generate", [&] {
                        dnn::WorkloadGenerator gen(ev.seed);
                        gen.makeGroup(ev.task, ev.jobs);
                    }) * 1e3);
    }

    void endToEnd(Metrics& out) const override
    {
        out["setup_s"] = {median(setup_), "s"};
        out["remap_p50_ms"] = {quantile(stepMs_, 0.50), "ms"};
        out["remap_p90_ms"] = {quantile(stepMs_, 0.90), "ms"};
        out["quality_x_herald"] = {geomean(quality_), "x"};
    }

    void perLayer(Metrics& out) const override
    {
        layers_.report(out);
        for (const char* source : {"previous", "store", "cold"}) {
            auto it = stepBySource_.find(source);
            out[std::string("dyn.step_ms.") + source] = {
                it == stepBySource_.end() ? 0.0 : median(it->second), "ms"};
        }
        out["dyn.samples_per_event"] = {mean(samples_), "count"};
        out["dyn.transfer_us"] = {median(transferUs_), "us"};
        out["dyn.reconfig_us"] = {median(reconfigUs_), "us"};
    }

  private:
    std::vector<double> setup_, stepMs_, quality_, samples_;
    std::map<std::string, std::vector<double>> stepBySource_;
    std::vector<dyn::EventRecord> lastRecs_;
    std::vector<EventGroup> lastGroups_;
    dyn::WorkloadTrace lastTrace_;

    LayerProbe layers_;
    std::vector<double> transferUs_, reconfigUs_;
};

}  // namespace

std::unique_ptr<Lane>
makeDynChurn(Context& ctx, uint64_t seed)
{
    return std::make_unique<DynChurn>(ctx, seed);
}

}  // namespace perfbench
