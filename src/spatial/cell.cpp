#include "spatial/cell.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scod {

namespace {
constexpr std::uint64_t kAxisBits = 21;
constexpr std::uint64_t kAxisMask = (1ull << kAxisBits) - 1;
constexpr std::int64_t kAxisOffset = 1ull << (kAxisBits - 1);
}  // namespace

CellIndexer::CellIndexer(double cell_size, double half_extent)
    : cell_size_(cell_size), half_extent_(half_extent), inv_cell_size_(1.0 / cell_size) {
  if (!(cell_size > 0.0)) throw std::invalid_argument("CellIndexer: cell size must be > 0");
  if (!(half_extent > 0.0)) throw std::invalid_argument("CellIndexer: extent must be > 0");
  const double cells = std::ceil(2.0 * half_extent / cell_size);
  if (cells >= static_cast<double>(kAxisOffset)) {
    throw std::invalid_argument("CellIndexer: cell size too small for 21-bit axis keys");
  }
  cells_per_axis_ = static_cast<std::int32_t>(cells);
}

CellCoord CellIndexer::cell_of(const Vec3& position) const {
  auto axis = [&](double v) {
    const double idx = std::floor((v + half_extent_) * inv_cell_size_);
    const double clamped = std::clamp(idx, 0.0, static_cast<double>(cells_per_axis_ - 1));
    return static_cast<std::int32_t>(clamped);
  };
  return {axis(position.x), axis(position.y), axis(position.z)};
}

std::uint64_t CellIndexer::pack(const CellCoord& c) const {
  const auto ux = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.x) + kAxisOffset);
  const auto uy = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.y) + kAxisOffset);
  const auto uz = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.z) + kAxisOffset);
  return (ux & kAxisMask) | ((uy & kAxisMask) << kAxisBits) |
         ((uz & kAxisMask) << (2 * kAxisBits));
}

CellCoord CellIndexer::unpack(std::uint64_t key) const {
  auto axis = [](std::uint64_t bits) {
    return static_cast<std::int32_t>(static_cast<std::int64_t>(bits) - kAxisOffset);
  };
  return {axis(key & kAxisMask), axis((key >> kAxisBits) & kAxisMask),
          axis((key >> (2 * kAxisBits)) & kAxisMask)};
}

const std::array<CellCoord, 14>& cell_half_neighborhood() {
  static const std::array<CellCoord, 14> offsets = [] {
    std::array<CellCoord, 14> o{};
    std::size_t i = 0;
    o[i++] = {0, 0, 0};
    for (std::int32_t dz = -1; dz <= 1; ++dz)
      for (std::int32_t dy = -1; dy <= 1; ++dy)
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          // Keep offsets that are lexicographically positive in (z, y, x);
          // the mirrored half is covered from the neighbouring cell's scan.
          if (dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx > 0)))) {
            o[i++] = {dx, dy, dz};
          }
        }
    return o;
  }();
  return offsets;
}

}  // namespace scod
