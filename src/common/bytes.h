// Byte buffers and data-integrity helpers. Payloads in the simulation are
// real bytes so that end-to-end tests can checksum what arrives. A Buffer
// is a handle on a reference-counted block: holders that need the same
// bytes (a retained message and the one on the wire, records cut from one
// stream) share the block instead of copying it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace freeflow {

using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

/// Total bytes of `parts`.
inline std::size_t total_size(std::initializer_list<ByteSpan> parts) noexcept {
  std::size_t size = 0;
  for (const ByteSpan part : parts) size += part.size();
  return size;
}

/// Copies `parts` back to back to `out`, which has room for all of them.
inline void copy_parts(std::byte* out, std::initializer_list<ByteSpan> parts) noexcept {
  for (const ByteSpan part : parts) {
    if (part.empty()) continue;  // an empty span may carry a null data()
    std::memcpy(out, part.data(), part.size());
    out += part.size();
  }
}

/// Owning, resizable byte buffer over one reference-counted block.
///
/// `Buffer(n)` and `resize()` zero-fill; `for_overwrite(n)` does not, for
/// callers that write every byte before anything reads one. `consume_front`
/// drops a prefix in O(1) by advancing `data()`, so a header can be stripped
/// and the payload handed on without copying it.
///
/// `share()` and `slice(off, n)` hand out, in O(1), another handle on the
/// same bytes: a retained message and the copy of it that goes out, a TCP
/// chunk in flight and on the wire, records cut from one receive
/// accumulator. The block's count is intrusive and not atomic: it sits at
/// the head of the block's one `new[]` allocation, and all shares of a block
/// stay on one thread. A write through a handle whose block is shared
/// copies that handle's bytes into a fresh block first (non-const `data()`,
/// `mutable_view()`, `append`, growing `resize`), so no handle ever sees
/// another's writes and a slice never writes into its neighbours. Readers
/// use `view()` or const `data()`, which never copy. The copy constructor
/// stays a deep copy.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) { resize(size); }
  Buffer(const void* data, std::size_t size) { append(data, size); }
  static Buffer from_string(std::string_view s) { return Buffer(s.data(), s.size()); }
  /// `size` bytes of uninitialised storage: the caller writes all of them.
  static Buffer for_overwrite(std::size_t size) {
    std::byte* bytes = size == 0 ? nullptr : allocate(size);
    Buffer b;
    b.bytes_ = bytes;
    b.capacity_ = size;
    b.size_ = size;
    return b;
  }
  /// `parts` back to back, in one allocation and one copy of each.
  static Buffer gather(std::initializer_list<ByteSpan> parts) {
    Buffer b = for_overwrite(total_size(parts));
    copy_parts(b.bytes_, parts);
    return b;
  }

  ~Buffer() { release(); }
  /// Deep: the copy owns a fresh block.
  Buffer(const Buffer& other) : Buffer(other.data(), other.size()) {}
  Buffer& operator=(const Buffer& other) {
    if (this != &other) *this = Buffer(other);
    return *this;
  }
  Buffer(Buffer&& other) noexcept
      : bytes_(std::exchange(other.bytes_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      bytes_ = std::exchange(other.bytes_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      offset_ = std::exchange(other.offset_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  /// Another handle on all of this buffer's bytes, without copying them.
  [[nodiscard]] Buffer share() const noexcept { return slice(0, size_); }
  /// A handle on bytes [offset, offset + n) of this buffer, without copying
  /// them (offset + n <= size()).
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t n) const noexcept {
    FF_CHECK(offset <= size_ && n <= size_ - offset);
    Buffer b;
    if (n == 0) return b;
    ++refs();
    b.bytes_ = bytes_;
    b.capacity_ = capacity_;
    b.offset_ = offset_ + offset;
    b.size_ = n;
    return b;
  }

  /// Handles on this buffer's block, this one included (0 without a block).
  [[nodiscard]] std::size_t use_count() const noexcept { return bytes_ ? refs() : 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Writable bytes: copies them out of a shared block first (an
  /// allocation failure there ends the process, as noexcept says).
  [[nodiscard]] std::byte* data() noexcept {
    unshare();
    return bytes_ + offset_;
  }
  [[nodiscard]] const std::byte* data() const noexcept { return bytes_ + offset_; }

  [[nodiscard]] ByteSpan view() const noexcept { return {bytes_ + offset_, size_}; }
  [[nodiscard]] MutableByteSpan mutable_view() noexcept { return {data(), size_}; }

  /// Grows zero-filled or shrinks.
  void resize(std::size_t size) {
    if (size > size_) {
      reserve(size);
      std::memset(bytes_ + offset_ + size_, 0, size - size_);
    }
    size_ = size;
  }
  void append(ByteSpan chunk) {
    if (chunk.empty()) return;
    reserve(size_ + chunk.size());
    std::memcpy(bytes_ + offset_ + size_, chunk.data(), chunk.size());
    size_ += chunk.size();
  }
  void append(const void* data, std::size_t size) {
    append(ByteSpan{static_cast<const std::byte*>(data), size});
  }
  /// Drops the first `n` bytes (n <= size()) without moving the rest.
  void consume_front(std::size_t n) noexcept {
    offset_ += n;
    size_ -= n;
    if (size_ == 0) clear();
  }
  /// Empties the buffer, keeping its block for reuse unless it is shared.
  void clear() noexcept {
    if (shared()) release();
    offset_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::string to_string() const {
    return {reinterpret_cast<const char*>(data()), size_};
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

  /// Bytes in front of a block's storage, in the same allocation: the count
  /// of handles on it, padded so the bytes stay max-aligned.
  static constexpr std::size_t k_block_header = alignof(std::max_align_t);

 private:
  static std::byte* allocate(std::size_t capacity) {
    std::byte* block = new std::byte[k_block_header + capacity];
    ::new (static_cast<void*>(block)) std::size_t(1);
    return block + k_block_header;
  }
  [[nodiscard]] std::size_t& refs() const noexcept {
    return *std::launder(reinterpret_cast<std::size_t*>(bytes_ - k_block_header));
  }
  [[nodiscard]] bool shared() const noexcept { return bytes_ != nullptr && refs() > 1; }

  /// Out of line (bytes.cc): a translation unit that replaces new[] and
  /// delete[] with malloc and free, as the copy-budget test does, would
  /// otherwise trip GCC's -Wmismatched-new-delete on the inlined pair.
  static void free_block(std::byte* bytes) noexcept;
  /// Drops this handle's reference, freeing the block with the last one.
  void release() noexcept {
    if (bytes_ != nullptr && --refs() == 0) free_block(bytes_);
    bytes_ = nullptr;
    capacity_ = 0;
    offset_ = 0;
  }
  /// Moves this handle's bytes into a fresh block of `capacity` bytes.
  void reallocate(std::size_t capacity) {
    std::byte* bytes = allocate(capacity);
    if (size_ != 0) std::memcpy(bytes, bytes_ + offset_, size_);
    release();  // keeps size_
    bytes_ = bytes;
    capacity_ = capacity;
  }
  void unshare() {
    if (shared()) reallocate(size_);
  }
  /// Makes room for `size` live bytes from data() that this handle alone
  /// may write: copies out of a shared block into one of exactly `size`
  /// bytes, else reuses the consumed prefix when that suffices, else moves
  /// into fresh storage at least twice as large.
  void reserve(std::size_t size) {
    if (shared()) {
      reallocate(size);
      return;
    }
    if (offset_ + size <= capacity_) return;
    if (size <= capacity_) {
      std::memmove(bytes_, bytes_ + offset_, size_);
      offset_ = 0;
      return;
    }
    reallocate(std::max(size, 2 * capacity_));
  }

  std::byte* bytes_ = nullptr;  ///< the block's bytes, behind its count
  std::size_t capacity_ = 0;    ///< bytes in the block
  std::size_t offset_ = 0;      ///< where this handle's bytes start
  std::size_t size_ = 0;
};

/// CRC32 (IEEE polynomial, reflected) over a byte span. Used by tests and
/// workloads to verify payload integrity across every transport.
std::uint32_t crc32(ByteSpan data) noexcept;
inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32(ByteSpan{static_cast<const std::byte*>(data), size});
}

/// Fills `out` with a deterministic pattern derived from `seed` so receivers
/// can regenerate and compare.
void fill_pattern(MutableByteSpan out, std::uint64_t seed) noexcept;

/// True if `data` matches the pattern `fill_pattern` would produce for seed.
bool check_pattern(ByteSpan data, std::uint64_t seed) noexcept;

}  // namespace freeflow
