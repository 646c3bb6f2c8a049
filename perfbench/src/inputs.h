/**
 * @file
 * Benchmark-owned inputs: the random streams and the value codec.
 *
 * Everything the benchmark sends is generated here, from the run's
 * seed, so no change to the engine (src/ycsb included) can change what
 * the benchmark sends. Same seed, same inputs.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** splitmix64 finalizer: scrambles key ranks and seeds streams. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xoshiro256** seeded through splitmix64. */
class Rng {
  public:
    explicit Rng(uint64_t seed)
    {
        for (auto &w : s_) {
            seed = mix64(seed);
            w = seed;
        }
    }

    uint64_t
    next()
    {
        const uint64_t r = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return r;
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    uint64_t s_[4];
};

/**
 * Zipfian ranks over [0, n) with skew theta (Gray et al., the YCSB
 * generator), scrambled so the hot ranks land on scattered keys.
 */
class Zipf {
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; i++)
            zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
    }

    /** A key in [0, n): the drawn rank, scrambled. */
    uint64_t
    key(Rng &rng) const
    {
        return mix64(rank(rng)) % n_;
    }

  private:
    uint64_t
    rank(Rng &rng) const
    {
        const double u = rng.unit();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const auto r = static_cast<uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r < n_ ? r : n_ - 1;
    }

    uint64_t n_;
    double theta_;
    double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/**
 * Self-checking values. Layout (little-endian):
 *   [0,8)   key
 *   [8,16)  version
 *   [16,24) checksum of the whole value with this field zeroed
 *   [24,n)  filler derived from (key, version)
 * A reply is correct only when it decodes, names the requested key and
 * carries a version the benchmark actually wrote for it.
 */
struct ValueCodec {
    static constexpr size_t kHeader = 24;

    static uint64_t
    checksum(std::string_view v)
    {
        uint64_t h = 0x6a09e667f3bcc909ull ^ v.size();
        for (size_t i = 0; i < v.size(); i += 8) {
            uint64_t w = 0;
            std::memcpy(&w, v.data() + i, std::min<size_t>(8, v.size() - i));
            if (i == 16)
                w = 0;
            h = mix64(h ^ w);
        }
        return h;
    }

    static void
    encode(uint64_t key, uint64_t version, size_t bytes, std::string *out)
    {
        out->resize(bytes);
        char *p = out->data();
        std::memset(p, 0, kHeader);
        std::memcpy(p, &key, 8);
        std::memcpy(p + 8, &version, 8);
        uint64_t f = mix64(key * 0x100000001b3ull ^ version);
        for (size_t i = kHeader; i < bytes; i += 8) {
            f = mix64(f);
            std::memcpy(p + i, &f, std::min<size_t>(8, bytes - i));
        }
        const uint64_t c = checksum(*out);
        std::memcpy(p + 16, &c, 8);
    }

    /** @return the version, or 0 when @p v is not a valid value of @p key. */
    static uint64_t
    decode(uint64_t key, std::string_view v, size_t bytes)
    {
        if (v.size() != bytes || v.size() < kHeader)
            return 0;
        uint64_t k, ver, c;
        std::memcpy(&k, v.data(), 8);
        std::memcpy(&ver, v.data() + 8, 8);
        std::memcpy(&c, v.data() + 16, 8);
        if (k != key || c != checksum(v))
            return 0;
        return ver;
    }
};

/**
 * Per-key version bookkeeping behind the read checks, safe for
 * concurrent clients. A write draws the next version of its key; a read
 * may return any version written so far, but none older than the floor
 * it saw when it started. A completed write raises the floor only if no
 * other write of the key was in flight once its version was drawn:
 * every older version was counted in flight before this one was drawn,
 * so all of them completed first. Otherwise linearizability allows
 * either order, and the floor stays.
 */
class KeyVersions {
  public:
    /** Every key starts at version 1, the preload. */
    explicit KeyVersions(uint64_t keys)
        : issued_(keys), floor_(keys), inflight_(keys)
    {
        for (uint64_t k = 0; k < keys; k++) {
            issued_[k].store(1);
            floor_[k].store(1);
        }
    }

    struct Write {
        uint64_t version;
        bool solo;  ///< no other write of the key in flight
    };

    Write
    beginWrite(uint64_t key)
    {
        inflight_[key].fetch_add(1);
        const uint64_t v = issued_[key].fetch_add(1) + 1;
        return {v, inflight_[key].load() == 1};
    }

    void
    endWrite(uint64_t key, Write w, bool ok)
    {
        if (ok && w.solo) {
            uint64_t f = floor_[key].load();
            while (f < w.version &&
                   !floor_[key].compare_exchange_weak(f, w.version)) {}
        }
        inflight_[key].fetch_sub(1);
    }

    uint64_t floor(uint64_t key) const { return floor_[key].load(); }

    /** May version @p v (0: undecodable) answer a read that saw @p floor? */
    bool
    readOk(uint64_t key, uint64_t floor, uint64_t v) const
    {
        return v != 0 && v >= floor && v <= issued_[key].load();
    }

  private:
    std::vector<std::atomic<uint64_t>> issued_, floor_;
    std::vector<std::atomic<uint32_t>> inflight_;
};

/** Percentile of an unsorted sample set (nearest rank); 0 when empty. */
template <typename T>
double
percentile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (idx >= v.size())
        idx = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
    return static_cast<double>(v[idx]);
}

template <typename T>
double
mean(const std::vector<T> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (const auto &x : v)
        s += static_cast<double>(x);
    return s / static_cast<double>(v.size());
}

}  // namespace perfbench
