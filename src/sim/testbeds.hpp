// Testbed: one fully-instantiated simulated room.
//
// Combines Deployment geometry, RadioModel physics, a static multipath
// field pair (blended by the DriftModel's morph angle), per-link hardware
// gain offsets (the paper's footnote 3: uncalibrated RF chains) and the
// long-term DriftModel.  Exposes the *mean* (noiseless) RSS for any
// (link, target-cell, day) triple; short-term randomness is added by
// sim::Sampler on top.
//
// Factory functions reproduce the paper's three rooms:
//   office  9 x 12 m, M = 8, S = 12 (96 cells ~ paper's 94 effective)
//   library 8 x 11 m, M = 6, S = 12 (72 cells, matches the paper exactly)
//   hall   10 x 10 m, M = 8, S = 15 (120 cells, matches the paper exactly)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/ids.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "sim/deployment.hpp"
#include "sim/drift.hpp"
#include "sim/environment.hpp"
#include "sim/radio_model.hpp"

namespace iup::sim {

/// How the deployment senses the target (the Aly/Youssef comparison axis,
/// arXiv:1508.00040).  Device-free: the target carries nothing and the
/// fingerprint is the shadowing/multipath perturbation of fixed TX->RX
/// links (the paper's model).  Device-based: the target carries the
/// transmitter and each "link" row is an anchor receiving it, so the
/// fingerprint is distance-dominated path loss with multipath texture and
/// no target-induced blocking term.
enum class SensingMode : std::uint8_t {
  kDeviceFree = 0,
  kDeviceBased = 1,
};

constexpr std::string_view to_string(SensingMode mode) {
  switch (mode) {
    case SensingMode::kDeviceFree: return "device-free";
    case SensingMode::kDeviceBased: return "device-based";
  }
  return "unknown";
}

class Testbed {
 public:
  Testbed(Environment env, DeploymentConfig deployment, RadioParams radio,
          std::size_t max_day, std::uint64_t seed);

  const Environment& environment() const { return env_; }
  const Deployment& deployment() const { return deployment_; }
  const RadioModel& radio() const { return radio_; }
  const DriftModel& drift() const { return drift_; }
  std::uint64_t seed() const { return seed_; }

  std::size_t num_links() const { return deployment_.num_links(); }
  std::size_t num_cells() const { return deployment_.num_cells(); }

  /// Mean RSS of link i at day t with no target present [dBm].
  double mean_baseline_rss(std::size_t link, std::size_t day) const;

  /// Mean RSS of link i at day t with the target at cell j [dBm].
  double mean_rss(std::size_t link, std::size_t cell, std::size_t day) const;

  /// Mean RSS of link i at day t with the target at an arbitrary position
  /// (used by the tracking example, where the target moves continuously).
  double mean_rss_at(std::size_t link, geom::Point2 target,
                     std::size_t day) const;

  /// The full M x N mean fingerprint matrix at day t (the simulator's
  /// ground truth for reconstruction-error metrics).
  linalg::Matrix mean_fingerprint(std::size_t day) const;

  /// Noiseless target-induced loss of link i for a target at cell j [dB].
  /// (Physics only: no multipath/scatter, time invariant.)
  double direct_loss_db(std::size_t link, std::size_t cell) const;

  /// RNG stream for a named consumer tied to this testbed's seed.
  rng::Rng fork_rng(std::string_view label) const;

  // --- multi-radio scenario layer -------------------------------------
  // All of these are plain post-construction configuration: none of them
  // draws from the testbed's RNG streams, so attaching sources to an
  // existing room leaves every mean-RSS value byte-identical (the
  // per-source gain defaults to zero).

  /// Attach the per-link source table (one entry per link) and optional
  /// per-link source gain offsets [dB] modelling the technology's TX
  /// power / sensitivity difference.  Empty gains = all zero.  Throws
  /// std::invalid_argument on size mismatches.
  void set_sources(std::vector<SourceInfo> sources,
                   std::vector<double> source_gain_db = {});
  void set_sensing_mode(SensingMode mode) { mode_ = mode; }
  /// Sources absent from the deployment during update campaigns (dead
  /// battery, unplugged AP): trace generation emits no observations for
  /// their links, so the pipeline must fall back to served values there.
  void set_missing_sources(std::vector<SourceId> missing) {
    missing_sources_ = std::move(missing);
  }

  /// Per-link source table; defaults to the degenerate single-technology
  /// table (WiFi, id == link index) so every room is source-addressable.
  const std::vector<SourceInfo>& sources() const { return sources_; }
  SensingMode sensing_mode() const { return mode_; }
  const std::vector<SourceId>& missing_sources() const {
    return missing_sources_;
  }
  /// True when `link`'s source is in the missing set.
  bool source_missing(std::size_t link) const;
  /// Technology-dependent gain of link i's source [dB] (0 when unset).
  double source_gain_db(std::size_t link) const {
    return source_gain_db_.empty() ? 0.0 : source_gain_db_[link];
  }

 private:
  /// Target-induced multipath perturbation of link i for a target at cell
  /// j at day t [dB]: a static per-(link,cell) texture that decays with the
  /// cell-to-link distance as 1/(1+d^2) and morphs slowly over weeks.  At
  /// zero distance (own band) this is the NLoS texture riding on the
  /// knife-edge profile; one band over it is the paper's "small RSS
  /// decrease" regime; far away it vanishes (the no-decrease cells).
  double target_multipath_db(std::size_t link, std::size_t cell,
                             std::size_t day) const;

  /// Morphing multipath offset on the *baseline* (no target) of link i.
  double baseline_multipath_db(std::size_t link, std::size_t day) const;

  /// Relative perturbation of the attenuation profile at day t (zero at
  /// day 0, spatially smooth along each band, amplitude ~shadow_morph_frac).
  double shadow_blend(std::size_t link, std::size_t slot,
                      std::size_t day) const;

  /// Device-based variant of mean_rss: anchor `link` receiving the
  /// target-carried device at cell `cell` (distance path loss + texture,
  /// no blocking loss).
  double device_rss(std::size_t link, std::size_t cell,
                    std::size_t day) const;

  Environment env_;
  Deployment deployment_;
  RadioModel radio_;
  DriftModel drift_;
  std::uint64_t seed_;
  rng::Rng root_;
  SensingMode mode_ = SensingMode::kDeviceFree;
  std::vector<SourceInfo> sources_;
  std::vector<double> source_gain_db_;  ///< empty = all zero
  std::vector<SourceId> missing_sources_;

  std::vector<double> link_gain_db_;   ///< hardware RF-chain offsets
  linalg::Matrix multipath_a_;         ///< target multipath, morph comp. A
  linalg::Matrix multipath_b_;         ///< target multipath, morph comp. B
  linalg::Matrix proximity_;           ///< 1/(1+d^2) cell-to-link weights
  std::vector<double> baseline_mp_a_;  ///< baseline multipath, component A
  std::vector<double> baseline_mp_b_;  ///< baseline multipath, component B
  linalg::Matrix shadow_a_;            ///< smooth band shadow field, comp. A
  linalg::Matrix shadow_b_;            ///< smooth band shadow field, comp. B
};

/// Paper testbeds.  `seed` defaults differ per room so that cross-room
/// results are decorrelated even with default arguments.
Testbed make_office_testbed(std::uint64_t seed = 11);
Testbed make_library_testbed(std::uint64_t seed = 22);
Testbed make_hall_testbed(std::uint64_t seed = 33);

/// A heterogeneous deployment: links split between WiFi APs, BLE beacons
/// and LoRa nodes (first/second/last third of the link list), each
/// technology with its own gain offset — BLE runs hot-and-close (low TX
/// power), LoRa penetrates (sub-GHz).  Source ids are deployment-style
/// (100+link WiFi, 200+link BLE, 300+link LoRa), NOT link indices, so
/// id!=index bugs surface in tests.
struct MixedRadioOptions {
  SensingMode mode = SensingMode::kDeviceFree;
  std::size_t num_links = 9;
  std::size_t slots_per_link = 12;
  /// Source ids absent during update campaigns (see
  /// Testbed::set_missing_sources); empty = full coverage.
  std::vector<SourceId> missing_sources;
  std::uint64_t seed = 77;
};
Testbed make_mixed_radio_testbed(MixedRadioOptions options = {});

/// The mixed deployment's source table for a given link count (exposed so
/// trace generators and tests can build matching observation streams).
std::vector<SourceInfo> mixed_radio_sources(std::size_t num_links);

/// The six ground-truth time stamps (days) used throughout the evaluation:
/// original, +3, +5, +15, +45 days and +3 months.
const std::vector<std::size_t>& paper_time_stamps();

/// The five *update* stamps (excludes day 0, which is the original survey).
const std::vector<std::size_t>& paper_update_stamps();

}  // namespace iup::sim
