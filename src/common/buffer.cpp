#include "common/buffer.hpp"

namespace dgiwarp {

// Out of line: vector's growth path, which libstdc++ also relocates one
// byte at a time for this allocator, then stays out of every caller. The
// growth is rare; the hot copies land in reserved or fresh buffers.
void append(Bytes& out, ConstByteSpan s) {
  if (s.empty()) return;
  const std::size_t old = out.size();
  out.resize(old + s.size());
  std::memcpy(out.data() + old, s.data(), s.size());
}

}  // namespace dgiwarp
