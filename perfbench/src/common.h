#ifndef MAGMA_PERFBENCH_COMMON_H_
#define MAGMA_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace magma {
namespace accel {}
namespace api {}
namespace baselines {}
namespace cost {}
namespace dnn {}
namespace dyn {}
namespace exec {}
namespace obs {}
namespace opt {}
namespace rl {}
namespace sched {}
namespace serve {}
}  // namespace magma

namespace perfbench {

// The program's modules, by the names the layer metrics use.
namespace accel = magma::accel;
namespace api = magma::api;
namespace baselines = magma::baselines;
namespace cost = magma::cost;
namespace dnn = magma::dnn;
namespace dyn = magma::dyn;
namespace exec = magma::exec;
namespace obs = magma::obs;
namespace opt = magma::opt;
namespace rl = magma::rl;
namespace sched = magma::sched;
namespace serve = magma::serve;

/** Seconds on the steady clock since the benchmark process started. */
double now();

/** Median of `v` (0 for an empty vector). */
double median(std::vector<double> v);

/** Quantile `q` in [0, 1] of `v` by linear interpolation. */
double quantile(std::vector<double> v, double q);

/** Geometric mean of positive values (0 for an empty vector). */
double geomean(const std::vector<double>& v);

/** Mean of `v` (0 for an empty vector). */
double mean(const std::vector<double>& v);

/** A deterministic 64-bit input stream derived from (seed, stream, index):
 * every workload input is drawn from one of these, so a seed fixes the
 * inputs whatever the host timing was. */
std::mt19937_64 inputRng(uint64_t seed, uint64_t stream, uint64_t index);

/** One reported metric. */
struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Spans recorded by the traced run: one per timed call, with its parent,
 * kept in memory and written once at the end as a Chrome trace-event
 * file through obs::ChromeTrace. Disabled (no-op) in untraced runs.
 * Spans are opened and closed on the benchmark's main thread only.
 */
class Spans {
  public:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int64_t id = 0;
        int64_t parent = 0;  ///< 0 = root
        int track = 1;
        double payload = 0.0;
    };

    /** RAII scope: a span from construction to destruction. */
    class Scope {
      public:
        Scope(Spans& spans, std::string name, double payload = 0.0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Spans* spans_;
        size_t index_ = 0;
        bool on_ = false;
    };

    bool enabled = false;

    /** Record a span whose times were taken elsewhere (a request from
     * its due time to its response), parented to the open scope. */
    void add(const std::string& name, double start, double end, int track,
             double payload);

    const std::vector<Span>& all() const { return spans_; }

    /** Write the spans as a Chrome trace file and re-read it through
     * obs::ChromeTrace::fromJson; returns "" or what went wrong. */
    std::string write(const std::string& path,
                      const std::string& source) const;

  private:
    std::vector<Span> spans_;
    std::vector<int64_t> open_;  // ids of open scopes, innermost last
};

/**
 * Operations ledger. An operation is a search, a request or an event; it
 * fails when any of its output checks fails, or when it was shed or
 * threw. The first few failure messages are kept for the report.
 */
struct Ledger {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> messages;

    /** Count one operation with the errors its checks returned. */
    void op(const std::string& what, const std::vector<std::string>& errs);
};

/** What every lane shares: the ledger and the spans. */
struct Context {
    Ledger ledger;
    Spans spans;
    /** Run-level failures that are not one operation's (a probe's parity
     * mismatch, a trace file that does not reparse). */
    std::vector<std::string> runErrors;
};

/** Time `fn` once, recording a span of `name` when tracing; returns
 * seconds. */
template <typename Fn>
double
timed(Context& ctx, const char* name, Fn&& fn)
{
    Spans::Scope scope(ctx.spans, name);
    double t0 = now();
    fn();
    return now() - t0;
}

}  // namespace perfbench

#endif  // MAGMA_PERFBENCH_COMMON_H_
