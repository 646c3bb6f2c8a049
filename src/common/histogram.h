/**
 * @file
 * Latency histogram with logarithmic bucketing.
 *
 * Used by the workload driver and the benchmark harnesses to report the
 * average / median / 99th-percentile latencies the paper's Tables 3 and 4
 * and Figures 11 and 14 present. Recording is wait-free per thread when
 * each thread owns a Histogram and results are merged afterwards.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace prism {

/**
 * Fixed-memory histogram of non-negative values (nanoseconds by
 * convention). Buckets are arranged in powers of two with linear
 * sub-buckets, giving < 1.6% relative error across the full range.
 */
class Histogram {
  public:
    Histogram();

    /** Record one sample. */
    void record(uint64_t value);

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /**
     * Subtract an earlier copy of this histogram, leaving only the
     * samples recorded in between (the interval-delta primitive behind
     * StatsSnapshot::histogramDelta). Assumes @p earlier
     * is a prefix of this histogram — same metric, snapshotted earlier
     * — and clamps per bucket so a mismatched pair cannot underflow.
     * count/sum (and hence mean) are exact; min/max are recomputed from
     * the surviving buckets, so they carry bucket-resolution error.
     */
    void subtract(const Histogram &earlier);

    /** Remove all samples. */
    void reset();

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Occupied buckets as (upper_bound, count) pairs in ascending bound
     * order — the raw material for cumulative exporters (Prometheus
     * `_bucket{le=...}`). Empty buckets are omitted; callers accumulate.
     */
    std::vector<std::pair<uint64_t, uint64_t>> nonZeroBuckets() const;

    /**
     * Value at quantile @p q in [0, 1]; e.g. 0.5 for the median,
     * 0.99 for the tail the paper reports.
     */
    uint64_t percentile(double q) const;

    /** "avg=… p50=… p90=… p99=… p999=… max=…" summary (microseconds). */
    std::string summaryUs() const;

  private:
    static constexpr int kSubBucketBits = 5;  // 32 linear buckets per octave
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kOctaves = 40;       // covers > 10^12 ns

    static int bucketFor(uint64_t value);
    static uint64_t bucketUpperBound(int index);

    std::vector<uint64_t> buckets_;
    uint64_t count_;
    uint64_t sum_;
    uint64_t min_;
    uint64_t max_;
};

}  // namespace prism
