#include "mpi/op.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "mpi/error.hpp"

namespace ombx::mpi {

std::string to_string(Op op) {
  switch (op) {
    case Op::kSum: return "MPI_SUM";
    case Op::kProd: return "MPI_PROD";
    case Op::kMin: return "MPI_MIN";
    case Op::kMax: return "MPI_MAX";
    case Op::kLand: return "MPI_LAND";
    case Op::kLor: return "MPI_LOR";
    case Op::kBand: return "MPI_BAND";
    case Op::kBor: return "MPI_BOR";
  }
  return "unknown";
}

bool valid_for(Op op, Datatype dt) noexcept {
  const bool is_float = dt == Datatype::kFloat || dt == Datatype::kDouble;
  switch (op) {
    case Op::kBand:
    case Op::kBor:
      return !is_float;
    default:
      return true;
  }
}

namespace {

/// inout[i] = f(inout[i], in[i]).  Elements go through memcpy: the
/// buffers are raw bytes (an RMA accumulate may sit at any displacement),
/// so they need not be aligned for T.
template <typename T, typename F>
void combine(void* inout, const void* in, std::size_t count, F f) {
  auto* dst = static_cast<unsigned char*>(inout);
  const auto* src = static_cast<const unsigned char*>(in);
  for (std::size_t i = 0; i < count * sizeof(T); i += sizeof(T)) {
    T a;
    T b;
    std::memcpy(&a, dst + i, sizeof(T));
    std::memcpy(&b, src + i, sizeof(T));
    a = f(a, b);
    std::memcpy(dst + i, &a, sizeof(T));
  }
}

/// Integer sum/product are computed in the unsigned type: the same
/// two's-complement bits, without signed overflow.
template <typename T>
using Wrapping = typename std::conditional_t<std::is_integral_v<T>,
                                             std::make_unsigned<T>,
                                             std::type_identity<T>>::type;

template <typename T>
void combine_arith(Op op, void* inout, const void* in, std::size_t count) {
  switch (op) {
    case Op::kSum:
      combine<T>(inout, in, count, [](T a, T b) {
        return static_cast<T>(Wrapping<T>(a) + Wrapping<T>(b));
      });
      break;
    case Op::kProd:
      combine<T>(inout, in, count, [](T a, T b) {
        return static_cast<T>(Wrapping<T>(a) * Wrapping<T>(b));
      });
      break;
    case Op::kMin:
      combine<T>(inout, in, count, [](T a, T b) { return std::min(a, b); });
      break;
    case Op::kMax:
      combine<T>(inout, in, count, [](T a, T b) { return std::max(a, b); });
      break;
    case Op::kLand:
      combine<T>(inout, in, count, [](T a, T b) {
        return static_cast<T>((a != T{}) && (b != T{}));
      });
      break;
    case Op::kLor:
      combine<T>(inout, in, count, [](T a, T b) {
        return static_cast<T>((a != T{}) || (b != T{}));
      });
      break;
    default:
      throw Error("bitwise op applied to non-integer combine path");
  }
}

template <typename T>
void combine_bitwise(Op op, void* inout, const void* in, std::size_t count) {
  switch (op) {
    case Op::kBand:
      combine<T>(inout, in, count,
                 [](T a, T b) { return static_cast<T>(a & b); });
      break;
    case Op::kBor:
      combine<T>(inout, in, count,
                 [](T a, T b) { return static_cast<T>(a | b); });
      break;
    default:
      combine_arith<T>(op, inout, in, count);
      break;
  }
}

}  // namespace

std::size_t apply(Op op, Datatype dt, void* inout, const void* in,
                  std::size_t count) {
  OMBX_REQUIRE(valid_for(op, dt),
               to_string(op) + " is not valid for " + to_string(dt));
  if (inout == nullptr || in == nullptr) return count;  // synthetic payloads
  switch (dt) {
    case Datatype::kByte:
    case Datatype::kChar:
      combine_bitwise<std::uint8_t>(op, inout, in, count);
      break;
    case Datatype::kInt32:
      combine_bitwise<std::int32_t>(op, inout, in, count);
      break;
    case Datatype::kInt64:
      combine_bitwise<std::int64_t>(op, inout, in, count);
      break;
    case Datatype::kUint64:
      combine_bitwise<std::uint64_t>(op, inout, in, count);
      break;
    case Datatype::kFloat:
      combine_arith<float>(op, inout, in, count);
      break;
    case Datatype::kDouble:
      combine_arith<double>(op, inout, in, count);
      break;
  }
  return count;
}

}  // namespace ombx::mpi
