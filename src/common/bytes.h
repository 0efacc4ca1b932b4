// Byte buffers and data-integrity helpers. Payloads in the simulation are
// real bytes so that end-to-end tests can checksum what arrives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace freeflow {

using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

/// Owning, resizable byte buffer over memcpy-managed storage.
///
/// `Buffer(n)` and `resize()` zero-fill; `for_overwrite(n)` does not, for
/// callers that write every byte before anything reads one. `consume_front`
/// drops a prefix in O(1) by advancing `data()`, so a header can be stripped
/// and the payload handed on without copying it.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) { resize(size); }
  Buffer(const void* data, std::size_t size) { append(data, size); }
  static Buffer from_string(std::string_view s) { return Buffer(s.data(), s.size()); }
  /// `size` bytes of uninitialised storage: the caller writes all of them.
  static Buffer for_overwrite(std::size_t size) {
    Buffer b;
    b.storage_ = std::make_unique_for_overwrite<std::byte[]>(size);
    b.capacity_ = size;
    b.size_ = size;
    return b;
  }
  /// `head` followed by `body`, in one allocation and one copy of each.
  static Buffer gather(ByteSpan head, ByteSpan body) {
    if (head.empty() && body.empty()) return {};
    Buffer b = for_overwrite(head.size() + body.size());
    if (!head.empty()) std::memcpy(b.data(), head.data(), head.size());
    if (!body.empty()) std::memcpy(b.data() + head.size(), body.data(), body.size());
    return b;
  }

  Buffer(const Buffer& other) : Buffer(other.data(), other.size()) {}
  Buffer& operator=(const Buffer& other) {
    if (this != &other) *this = Buffer(other);
    return *this;
  }
  Buffer(Buffer&& other) noexcept
      : storage_(std::move(other.storage_)),
        capacity_(std::exchange(other.capacity_, 0)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    storage_ = std::move(other.storage_);
    capacity_ = std::exchange(other.capacity_, 0);
    offset_ = std::exchange(other.offset_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::byte* data() noexcept { return storage_.get() + offset_; }
  [[nodiscard]] const std::byte* data() const noexcept { return storage_.get() + offset_; }

  [[nodiscard]] ByteSpan view() const noexcept { return {data(), size_}; }
  [[nodiscard]] MutableByteSpan mutable_view() noexcept { return {data(), size_}; }

  /// Grows zero-filled or shrinks.
  void resize(std::size_t size) {
    if (size > size_) {
      reserve(size);
      std::memset(data() + size_, 0, size - size_);
    }
    size_ = size;
  }
  void append(ByteSpan chunk) {
    if (chunk.empty()) return;
    reserve(size_ + chunk.size());
    std::memcpy(data() + size_, chunk.data(), chunk.size());
    size_ += chunk.size();
  }
  void append(const void* data, std::size_t size) {
    append(ByteSpan{static_cast<const std::byte*>(data), size});
  }
  /// Drops the first `n` bytes (n <= size()) without moving the rest.
  void consume_front(std::size_t n) noexcept {
    offset_ += n;
    size_ -= n;
    if (size_ == 0) offset_ = 0;
  }
  void clear() noexcept {
    offset_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::string to_string() const {
    return {reinterpret_cast<const char*>(data()), size_};
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  /// Makes room for `size` live bytes from data(): reuses the consumed
  /// prefix when that suffices, otherwise moves into fresh storage at least
  /// twice as large.
  void reserve(std::size_t size) {
    if (offset_ + size <= capacity_) return;
    if (size <= capacity_) {
      std::memmove(storage_.get(), data(), size_);
      offset_ = 0;
      return;
    }
    const std::size_t capacity = std::max(size, 2 * capacity_);
    auto storage = std::make_unique_for_overwrite<std::byte[]>(capacity);
    if (size_ != 0) std::memcpy(storage.get(), data(), size_);
    storage_ = std::move(storage);
    capacity_ = capacity;
    offset_ = 0;
  }

  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;  ///< bytes consumed from the front of storage_
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
