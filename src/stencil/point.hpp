// Grid offsets: the building block of a stencil access pattern.
//
// A stencil of dimensionality d accesses a set of integer offsets around the
// centre point (0,...,0). The *order* of an offset is its Chebyshev norm
// (max |coordinate|), matching the paper's definition of stencil order as
// "the extent of the neighbors along each dimension" (Sec. I).
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace smart::stencil {

/// Maximum supported dimensionality (the paper evaluates 2-D and 3-D).
inline constexpr int kMaxDims = 3;

/// Largest stencil order (the paper's N = 4): bounds every offset
/// coordinate and the feature layout's max_order.
inline constexpr int kMaxOrder = 4;

/// An integer offset from the stencil centre. Unused trailing coordinates
/// are zero, so a Point is comparable across code paths regardless of dims.
struct Point {
  std::array<std::int8_t, kMaxDims> coords{0, 0, 0};

  constexpr Point() = default;
  constexpr Point(int x, int y) : coords{static_cast<std::int8_t>(x),
                                         static_cast<std::int8_t>(y), 0} {}
  constexpr Point(int x, int y, int z)
      : coords{static_cast<std::int8_t>(x), static_cast<std::int8_t>(y),
               static_cast<std::int8_t>(z)} {}

  constexpr int operator[](int axis) const { return coords[static_cast<std::size_t>(axis)]; }

  /// Chebyshev norm: the order of this offset.
  constexpr int order() const {
    int m = 0;
    for (auto c : coords) {
      const int a = c < 0 ? -c : c;
      if (a > m) m = a;
    }
    return m;
  }

  /// Manhattan norm, used by shape classification (star points have
  /// manhattan == chebyshev since only one coordinate is non-zero).
  constexpr int manhattan() const {
    int s = 0;
    for (auto c : coords) s += (c < 0 ? -c : c);
    return s;
  }

  /// True if at most one coordinate is non-zero (lies on an axis).
  constexpr bool on_axis() const {
    int non_zero = 0;
    for (auto c : coords) {
      if (c != 0) ++non_zero;
    }
    return non_zero <= 1;
  }

  /// True if all non-zero coordinates have the same magnitude and every
  /// coordinate within the first `dims` axes is non-zero (a full diagonal).
  bool on_diagonal(int dims) const {
    int magnitude = -1;
    for (int a = 0; a < dims; ++a) {
      const int v = std::abs((*this)[a]);
      if (v == 0) return false;
      if (magnitude < 0) magnitude = v;
      else if (v != magnitude) return false;
    }
    return true;
  }

  constexpr bool is_centre() const {
    for (auto c : coords) {
      if (c != 0) return false;
    }
    return true;
  }

  friend constexpr bool operator==(const Point&, const Point&) = default;
  friend constexpr auto operator<=>(const Point&, const Point&) = default;

  std::string to_string(int dims) const;
};

/// The Moore neighbourhood (all offsets at Chebyshev distance exactly 1)
/// of a point, restricted to the first `dims` axes: 8 points in 2-D,
/// 26 in 3-D. This is the neighbour relation used by the random stencil
/// generator (paper Algorithm 1).
std::vector<Point> moore_neighbours(const Point& p, int dims);

struct PointHash {
  std::size_t operator()(const Point& p) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (auto c : p.coords) {
      h ^= static_cast<std::size_t>(static_cast<std::uint8_t>(c));
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace smart::stencil
