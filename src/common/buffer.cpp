#include "common/buffer.hpp"

namespace dgiwarp {

// Out of line, so that vector's growth path stays out of every caller. The
// growth is rare; the hot copies land in reserved or fresh buffers.
void append(Bytes& out, ConstByteSpan s) {
  out.insert(out.end(), s.data(), s.data() + s.size());
}

}  // namespace dgiwarp
