/**
 * @file
 * CRC32C (Castagnoli) used to protect value records on storage.
 *
 * Uses the SSE4.2 crc32 instruction when available, otherwise a
 * slice-by-1 table. Records written to Value Storage carry a checksum
 * over header identity + payload so that torn or misdirected SSD
 * reads are detected rather than served (Value Storage reads, GC and
 * recovery verify it).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace prism {

namespace detail {
/** Table-based fallback step (defined in crc32.cc). */
uint32_t crc32cSw(uint32_t crc, const void *data, size_t len);
}  // namespace detail

/** @return CRC32C of @p len bytes, seeded with @p crc (0 to start). */
uint32_t crc32c(uint32_t crc, const void *data, size_t len);

/** Convenience: checksum of a buffer from scratch. */
inline uint32_t
crc32c(const void *data, size_t len)
{
    return crc32c(0, data, len);
}

}  // namespace prism
