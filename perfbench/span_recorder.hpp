/**
 * @file
 * Spans the benchmark records around its own calls into each layer.
 *
 * Kept in the benchmark's memory and written out once at exit; the
 * library's obs collector and telemetry stay off, because an installed
 * collector changes which DRAM path SimulationOptions::Mode::Auto
 * takes. Spans may be opened from pool threads, so the store is
 * locked; parents are passed explicitly.
 */
#ifndef MOCKTAILS_PERFBENCH_SPAN_RECORDER_HPP
#define MOCKTAILS_PERFBENCH_SPAN_RECORDER_HPP

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0; ///< seconds since the recorder was created
        double end = 0.0;
    };

    int
    open(std::string name, int parent)
    {
        const double now = sinceOrigin();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{std::move(name), parent, now, now});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const double now = sinceOrigin();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** Write every span as a JSON array. @return false on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                         "\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                         i, s.name.c_str(), s.parent, s.start, s.end,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        return std::fclose(f) == 0;
    }

  private:
    double
    sinceOrigin() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Times one call. With a recorder it also records a span; without one
 * (the untraced run) it is a bare steady_clock stopwatch.
 */
class Timed
{
  public:
    Timed(SpanRecorder *recorder, const char *name, int parent = -1)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->open(name, parent) : -1)
    {
    }

    ~Timed() { stop(); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** End the span; idempotent. @return its length in seconds. */
    double
    stop()
    {
        if (!stopped_) {
            stopped_ = true;
            seconds_ =
                std::chrono::duration<double>(Clock::now() - start_)
                    .count();
            if (recorder_ != nullptr)
                recorder_->close(id_);
        }
        return seconds_;
    }

    /** Span id to parent children on (-1 when untraced). */
    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_;
    const Clock::time_point start_ = Clock::now();
    bool stopped_ = false;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // MOCKTAILS_PERFBENCH_SPAN_RECORDER_HPP
