#include "core/context.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"

namespace scod {

namespace {

/// A buffer is "grossly oversized" when its held capacity could serve more
/// than twice the request and the surplus is big enough to matter; small
/// buffers are never worth reallocating.
constexpr std::size_t kShrinkSlackElements = 4096;

template <typename T>
bool oversized(const std::vector<T>& buffer, std::size_t n) {
  return buffer.capacity() > 2 * n && buffer.capacity() - n > kShrinkSlackElements;
}

}  // namespace

ScratchArena::GridCheckout ScratchArena::grids(std::size_t count,
                                               std::size_t entries) {
  if (grid_entries_ != entries && !grids_.empty()) {
    // A GridHashSet's slot table is a pure function of its entry capacity;
    // a different population size means different geometry, so the cache
    // is useless — rebuilding doubles as shrink-on-oversize.
    grids_.clear();
    grids_.shrink_to_fit();
    ++stats_.vector_shrinks;
  }
  grid_entries_ = entries;
  if (grids_.size() > count) {
    grids_.erase(grids_.begin() + static_cast<std::ptrdiff_t>(count),
                 grids_.end());
    ++stats_.vector_shrinks;
  }
  GridCheckout checkout;
  checkout.reused = grids_.size();
  stats_.grid_reuses += checkout.reused;
  grids_.reserve(count);
  while (grids_.size() < count) {
    grids_.emplace_back(entries);
    ++stats_.grid_rebuilds;
  }
  checkout.grids = &grids_;
  return checkout;
}

std::vector<std::vector<Candidate>>& ScratchArena::candidate_buffers(
    std::size_t count) {
  if (candidate_buffers_.size() > count) {
    candidate_buffers_.resize(count);
    ++stats_.vector_shrinks;
  }
  stats_.candidate_reuses += candidate_buffers_.size();
  stats_.candidate_rebuilds += count - candidate_buffers_.size();
  candidate_buffers_.resize(count);
  return candidate_buffers_;
}

template <typename T>
std::vector<T>& ScratchArena::checkout(std::vector<T>& buffer, std::size_t n) {
  if (oversized(buffer, n)) {
    std::vector<T>().swap(buffer);
    ++stats_.vector_shrinks;
  }
  buffer.resize(n);
  return buffer;
}

std::vector<double>& ScratchArena::vmax(std::size_t n) {
  return checkout(vmax_, n);
}

std::vector<Conjunction>& ScratchArena::conjunction_slots(std::size_t n) {
  return checkout(conjunction_slots_, n);
}

std::vector<std::uint8_t>& ScratchArena::valid_flags(std::size_t n) {
  if (oversized(valid_flags_, n)) {
    std::vector<std::uint8_t>().swap(valid_flags_);
    ++stats_.vector_shrinks;
  }
  valid_flags_.assign(n, 0);
  return valid_flags_;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>& ScratchArena::pair_buffer(
    std::size_t expected) {
  if (oversized(pairs_, expected)) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>>().swap(pairs_);
    ++stats_.vector_shrinks;
  }
  pairs_.clear();
  pairs_.reserve(expected);
  return pairs_;
}

std::size_t ScratchArena::memory_bytes() const {
  std::size_t bytes = 0;
  for (const GridHashSet& g : grids_) bytes += g.memory_bytes();
  for (const std::vector<Candidate>& buffer : candidate_buffers_) {
    bytes += buffer.capacity() * sizeof(Candidate);
  }
  bytes += vmax_.capacity() * sizeof(double);
  bytes += conjunction_slots_.capacity() * sizeof(Conjunction);
  bytes += valid_flags_.capacity();
  bytes += pairs_.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>);
  return bytes;
}

void ScratchArena::release() {
  grids_.clear();
  grids_.shrink_to_fit();
  grid_entries_ = 0;
  std::vector<std::vector<Candidate>>().swap(candidate_buffers_);
  std::vector<double>().swap(vmax_);
  std::vector<Conjunction>().swap(conjunction_slots_);
  std::vector<std::uint8_t>().swap(valid_flags_);
  std::vector<std::pair<std::uint32_t, std::uint32_t>>().swap(pairs_);
}

ScreeningContext::Use::Use(ScreeningContext& context) : context_(context) {
  const std::thread::id me = std::this_thread::get_id();
  int expected = 0;
  if (context_.depth_.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
    context_.owner_.store(me, std::memory_order_release);
    if (context_.options_.telemetry && obs::compiled()) {
      context_.telemetry_was_enabled_ = obs::enabled();
      obs::set_enabled(true);
    }
    return;
  }
  if (context_.owner_.load(std::memory_order_acquire) != me) {
    throw std::logic_error(
        "ScreeningContext: concurrent use from a second thread — one screen "
        "at a time per context; give unrelated screens their own context");
  }
  context_.depth_.fetch_add(1, std::memory_order_acq_rel);
}

ScreeningContext::Use::~Use() {
  if (context_.depth_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    context_.owner_.store(std::thread::id{}, std::memory_order_release);
    if (context_.options_.telemetry && obs::compiled()) {
      obs::set_enabled(context_.telemetry_was_enabled_);
    }
  }
}

}  // namespace scod
