// Zero-allocation contract of the localize read path.
//
// This binary replaces the global operator new / delete with versions that
// count, per thread, every allocation before forwarding to malloc / free.
// After one warm-up call per shape, OmpLocalizer::localize and
// Engine::localize on a registered OMP site (registry find, bundle load,
// validation, OMP) must not allocate at all.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "loc/omp.hpp"
#include "test_util.hpp"

namespace {

thread_local std::size_t t_allocations = 0;
std::vector<double>* volatile g_sink = nullptr;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace iup {
namespace {

/// Allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(LocAlloc, CounterSeesAllocations) {
  EXPECT_GE(allocations_during([] {
              const auto v = std::make_unique<std::vector<double>>(64);
              g_sink = v.get();
            }),
            2u);
}

TEST(LocAlloc, OmpLocalizeIsAllocationFree) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  const loc::OmpLocalizer omp(x, {});
  sim::Sampler sampler(run.testbed, "alloc-test");
  std::vector<std::vector<double>> measurements;
  for (std::size_t j = 0; j < x.cols(); j += 5) {
    measurements.push_back(x.col(j));
    measurements.push_back(sampler.online_measurement(j, 0, 5));
  }
  (void)omp.localize(measurements.front());  // warm-up
  for (const auto& y : measurements) {
    loc::LocalizationEstimate est;
    EXPECT_EQ(allocations_during([&] { est = omp.localize(y); }), 0u);
    EXPECT_LT(est.cell, x.cols());
  }
}

TEST(LocAlloc, WorkspaceReusedAcrossShapesStaysAllocationFree) {
  // One thread alternating between rooms: once each shape has been seen,
  // the per-thread workspace sits at its high-water size.
  const auto& office = iup::test::office_run().ground_truth.at_day(0);
  const auto& library = iup::test::library_run().ground_truth.at_day(0);
  loc::OmpOptions raw;
  raw.subtract_baseline = false;
  raw.remove_common_mode = true;
  const loc::OmpLocalizer a(office, {});
  const loc::OmpLocalizer b(library, {}, raw);
  const auto ya = office.col(11);
  const auto yb = library.col(7);
  (void)a.localize(ya);
  (void)b.localize(yb);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(allocations_during([&] { (void)a.localize(ya); }), 0u);
    EXPECT_EQ(allocations_during([&] { (void)b.localize(yb); }), 0u);
  }
}

TEST(LocAlloc, EngineLocalizeIsAllocationFree) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const std::string site = "office";
  const auto& x = run.ground_truth.at_day(0);
  const auto warm = engine.localize(site, x.col(0));  // warm-up
  ASSERT_TRUE(warm.ok());
  for (std::size_t j = 0; j < x.cols(); j += 7) {
    const auto y = x.col(j);
    std::size_t cell = x.cols();
    EXPECT_EQ(allocations_during([&] {
                const auto est = engine.localize(site, y);
                if (est.ok()) cell = est->cell;
              }),
              0u)
        << "column " << j;
    EXPECT_EQ(cell, j);
  }
}

}  // namespace
}  // namespace iup
