#include "common/region.hpp"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace dgiwarp {

ZeroRegion::ZeroRegion(std::size_t bytes) : size_(bytes) {
#if !defined(__SANITIZE_ADDRESS__)
  if (bytes >= kMapThreshold) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    map_ = static_cast<u8*>(p);
    return;
  }
#endif
  heap_.assign(bytes, 0);
}

ZeroRegion::ZeroRegion(ZeroRegion&& other) noexcept
    : heap_(std::move(other.heap_)),
      map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroRegion& ZeroRegion::operator=(ZeroRegion&& other) noexcept {
  if (this != &other) {
    unmap();
    heap_ = std::move(other.heap_);
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

ZeroRegion::~ZeroRegion() { unmap(); }

void ZeroRegion::unmap() {
  if (map_) ::munmap(map_, size_);
  map_ = nullptr;
}

}  // namespace dgiwarp
