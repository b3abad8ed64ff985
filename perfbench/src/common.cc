#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/trace_export.h"

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

}  // namespace

double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kStart)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

std::mt19937_64
inputRng(uint64_t seed, uint64_t stream, uint64_t index)
{
    std::seed_seq seq{static_cast<uint32_t>(seed),
                      static_cast<uint32_t>(seed >> 32),
                      static_cast<uint32_t>(stream),
                      static_cast<uint32_t>(index),
                      static_cast<uint32_t>(index >> 32)};
    return std::mt19937_64(seq);
}

Spans::Scope::Scope(Spans& spans, std::string name, double payload)
    : spans_(&spans), on_(spans.enabled)
{
    if (!on_)
        return;
    Span s;
    s.name = std::move(name);
    s.start = now();
    s.id = static_cast<int64_t>(spans.spans_.size()) + 1;
    s.parent = spans.open_.empty() ? 0 : spans.open_.back();
    s.payload = payload;
    index_ = spans.spans_.size();
    spans.spans_.push_back(std::move(s));
    spans.open_.push_back(spans.spans_.back().id);
}

Spans::Scope::~Scope()
{
    if (!on_)
        return;
    spans_->spans_[index_].end = now();
    spans_->open_.pop_back();
}

void
Spans::add(const std::string& name, double start, double end, int track,
           double payload)
{
    if (!enabled)
        return;
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.track = track;
    s.payload = payload;
    spans_.push_back(std::move(s));
}

std::string
Spans::write(const std::string& path, const std::string& source) const
{
    // args.i carries the span id and args.a its parent's id, so the
    // parentage survives the trace-event format (which has none).
    magma::obs::ChromeTrace trace;
    trace.source = source;
    for (const Span& s : spans_) {
        magma::obs::ChromeEvent e;
        e.name = s.name;
        e.tsMicros = s.start * 1e6;
        e.durMicros = std::max(0.0, s.end - s.start) * 1e6;
        e.instant = false;
        e.tid = s.track;
        e.i = s.id;
        e.a = static_cast<double>(s.parent);
        e.b = s.payload;
        trace.events.push_back(std::move(e));
    }
    if (!magma::obs::TraceExporter::write(trace, path))
        return "trace file " + path + " was not written";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    try {
        magma::obs::ChromeTrace back =
            magma::obs::ChromeTrace::fromJson(text.str());
        if (back.events.size() != spans_.size())
            return "trace file " + path + " reparsed with " +
                   std::to_string(back.events.size()) + " of " +
                   std::to_string(spans_.size()) + " spans";
        for (size_t k = 0; k < back.events.size(); ++k)
            if (back.events[k].i != spans_[k].id ||
                back.events[k].a != static_cast<double>(spans_[k].parent))
                return "trace file " + path + " lost span parentage";
    } catch (const std::exception& e) {
        return "trace file " + path + " does not reparse: " + e.what();
    }
    return "";
}

void
Ledger::op(const std::string& what, const std::vector<std::string>& errs)
{
    ++attempted;
    bool bad = false;
    for (const std::string& e : errs) {
        if (e.empty())
            continue;
        bad = true;
        if (messages.size() < 8)
            messages.push_back(what + ": " + e);
    }
    if (bad)
        ++failed;
}

}  // namespace perfbench
