/// @file
/// Measurement helpers: mean/stddev summaries (paper §5 "error bars for
/// standard deviation") and formatters for bench output.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cxlcommon {

/// Online mean/stddev (Welford).
class RunningStat {
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    double stddev() const;

  private:
    std::size_t n_ = 0;
    double mean_ = 0;
    double m2_ = 0;
};

/// Pretty-prints byte counts ("1.5 GiB") for memory columns.
std::string format_bytes(std::uint64_t bytes);

/// Pretty-prints a throughput value ("12.3M ops/s").
std::string format_rate(double per_sec);

} // namespace cxlcommon
