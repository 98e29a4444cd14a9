#include "sim/testbeds.hpp"

#include <cmath>
#include <stdexcept>

namespace iup::sim {

namespace {
constexpr std::size_t kMaxDay = 95;  // covers "3 months later" (90 days)
}

Testbed::Testbed(Environment env, DeploymentConfig deployment,
                 RadioParams radio, std::size_t max_day, std::uint64_t seed)
    : env_(std::move(env)),
      deployment_(deployment),
      radio_(radio),
      drift_(env_, deployment.num_links, max_day,
             rng::Rng(seed).fork("drift")),
      seed_(seed),
      root_(seed) {
  const std::size_t m = deployment_.num_links();
  const std::size_t n = deployment_.num_cells();

  // Per-link hardware gain: RF chains are not calibrated against each other
  // (paper footnote 3), so adjacent-link similarity is good but not perfect.
  rng::Rng gain_rng = root_.fork("gain");
  link_gain_db_ = gain_rng.normal_vector(m, 0.0, 0.6);

  // Two independent static multipath texture fields; the drift morph angle
  // blends them, modelling slow reconfiguration of reflectors over weeks.
  // The texture is the target-induced NLoS perturbation, so it is weighted
  // by the cell-to-link proximity 1/(1+d^2): full strength on the blocked
  // link, a fraction one band over ("small decrease" cells), ~0 far away.
  rng::Rng mp_rng = root_.fork("multipath");
  multipath_a_ = linalg::Matrix(m, n);
  multipath_b_ = linalg::Matrix(m, n);
  proximity_ = linalg::Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      multipath_a_(i, j) = mp_rng.normal(0.0, env_.multipath_sigma_db);
      multipath_b_(i, j) = mp_rng.normal(0.0, env_.multipath_sigma_db);
      const double d = geom::point_segment_distance(
          deployment_.link(i), deployment_.cell_center(j));
      // A standing body scatters measurable energy onto links several
      // metres away (this is what makes fingerprints informative across
      // links); 1/(1+d) decays slower than free-space because the room
      // keeps reflecting.
      proximity_(i, j) = 1.0 / (1.0 + d);
    }
  }
  baseline_mp_a_ = mp_rng.normal_vector(m, 0.0, env_.multipath_sigma_db);
  baseline_mp_b_ = mp_rng.normal_vector(m, 0.0, env_.multipath_sigma_db);
  // Adjacent links share the room's reflectors, so their baseline
  // multipath is correlated too (this keeps adjacent-link similarity
  // intact as the fields morph — Observation 3).
  for (auto* base_mp : {&baseline_mp_a_, &baseline_mp_b_}) {
    for (std::size_t i = 1; i < m; ++i) {
      (*base_mp)[i] = std::sqrt(1.0 - env_.texture_link_corr) * (*base_mp)[i] +
                      std::sqrt(env_.texture_link_corr) * (*base_mp)[i - 1];
    }
  }

  // Own-band texture: the dominant multipath component a blocking target
  // induces on its own link.  Unlike the cross-link scatter above it is
  // spatially structured — smoothed along the link (Observation 2) and
  // correlated across adjacent links (Observation 3) — which is what makes
  // Constraint 2 informative on real fingerprints.
  const std::size_t s = deployment_.slots_per_link();
  const auto structured_band_field = [&](rng::Rng field_rng) {
    linalg::Matrix white(m, s);
    for (double& v : white.data()) v = field_rng.normal();
    // Blend white with a slot-smoothed copy.
    linalg::Matrix smooth = white;
    for (int pass = 0; pass < 2; ++pass) {
      linalg::Matrix next = smooth;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t u = 0; u < s; ++u) {
          const double left = smooth(i, u > 0 ? u - 1 : u);
          const double right = smooth(i, u + 1 < s ? u + 1 : u);
          next(i, u) = 0.25 * left + 0.5 * smooth(i, u) + 0.25 * right;
        }
      }
      smooth = std::move(next);
    }
    const double alpha = env_.texture_smoothness;
    linalg::Matrix band(m, s);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t u = 0; u < s; ++u) {
        band(i, u) = std::sqrt(1.0 - alpha) * white(i, u) +
                     std::sqrt(alpha) * 1.8 * smooth(i, u);
        // 1.8 ~ 1/std of the double-smoothed field, keeping variance ~1.
      }
    }
    // Mix across adjacent links.
    const double beta = env_.texture_link_corr;
    linalg::Matrix mixed = band;
    for (std::size_t i = 1; i < m; ++i) {
      for (std::size_t u = 0; u < s; ++u) {
        mixed(i, u) = std::sqrt(1.0 - beta) * band(i, u) +
                      std::sqrt(beta) * mixed(i - 1, u);
      }
    }
    mixed *= env_.multipath_sigma_db;
    return mixed;
  };
  const linalg::Matrix band_a = structured_band_field(mp_rng.fork("band-a"));
  const linalg::Matrix band_b = structured_band_field(mp_rng.fork("band-b"));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t u = 0; u < s; ++u) {
      multipath_a_(i, deployment_.cell_index(i, u)) = band_a(i, u);
      multipath_b_(i, deployment_.cell_index(i, u)) = band_b(i, u);
    }
  }

  // Smooth per-band shadowing morph fields: low-order Fourier modes along
  // the slot axis, so the attenuation profile deforms coherently (this is
  // what Constraint 2's continuity prior can exploit).
  // Default source table: the degenerate single-technology deployment
  // (WiFi, id == link index).  Assigned WITHOUT touching any RNG stream —
  // the fork order above is part of the byte-identity contract.
  sources_ = single_technology_sources(m);

  rng::Rng sh_rng = root_.fork("shadow");
  shadow_a_ = linalg::Matrix(m, s);
  shadow_b_ = linalg::Matrix(m, s);
  for (auto* field : {&shadow_a_, &shadow_b_}) {
    for (std::size_t i = 0; i < m; ++i) {
      const double a0 = sh_rng.normal(0.0, 0.6);
      const double a1 = sh_rng.normal(0.0, 0.8);
      const double a2 = sh_rng.normal(0.0, 0.5);
      const double p1 = sh_rng.uniform(0.0, 6.283185307179586);
      const double p2 = sh_rng.uniform(0.0, 6.283185307179586);
      for (std::size_t u = 0; u < s; ++u) {
        const double t = static_cast<double>(u) / static_cast<double>(s);
        (*field)(i, u) = a0 + a1 * std::sin(6.283185307179586 * t + p1) +
                         a2 * std::sin(12.566370614359172 * t + p2);
      }
    }
    // Environmental change is shared by nearby links (the same moved
    // cabinet shadows both), so mix the fields across adjacent links the
    // way the static texture is mixed; this keeps the adjacent-link
    // similarity (Observation 3 / Fig. 9) intact as the room ages.
    const double beta = env_.texture_link_corr;
    for (std::size_t i = 1; i < m; ++i) {
      for (std::size_t u = 0; u < s; ++u) {
        (*field)(i, u) = std::sqrt(1.0 - beta) * (*field)(i, u) +
                         std::sqrt(beta) * (*field)(i - 1, u);
      }
    }
  }
}

double Testbed::target_multipath_db(std::size_t link, std::size_t cell,
                                    std::size_t day) const {
  const double a = drift_.morph_angle(day);
  const double texture = std::cos(a) * multipath_a_(link, cell) +
                         std::sin(a) * multipath_b_(link, cell);
  return proximity_(link, cell) * texture;
}

double Testbed::baseline_multipath_db(std::size_t link,
                                      std::size_t day) const {
  const double a = drift_.morph_angle(day);
  return std::cos(a) * baseline_mp_a_[link] + std::sin(a) * baseline_mp_b_[link];
}

double Testbed::shadow_blend(std::size_t link, std::size_t slot,
                             std::size_t day) const {
  // Zero at day 0 by construction, so the original survey is exact.
  const double a = drift_.morph_angle(day);
  const double blend = std::sin(a) * shadow_a_(link, slot) +
                       (1.0 - std::cos(a)) * shadow_b_(link, slot);
  return env_.shadow_morph_frac * blend;
}

double Testbed::direct_loss_db(std::size_t link, std::size_t cell) const {
  return radio_.target_loss_db(deployment_.link(link),
                               deployment_.cell_center(cell));
}

double Testbed::mean_baseline_rss(std::size_t link, std::size_t day) const {
  const double rss = radio_.baseline_rss_dbm(deployment_.link(link).length()) +
                     link_gain_db_[link] + baseline_multipath_db(link, day) +
                     drift_.link_offset(link, day) + source_gain_db(link);
  return radio_.clamp_rss(rss);
}

double Testbed::device_rss(std::size_t link, std::size_t cell,
                           std::size_t day) const {
  // Device-based: the target-carried transmitter at cell j, anchor row i
  // receiving.  Distance-dominated path loss (floored so a target on top
  // of an anchor stays in the model's near field) plus the same morphing
  // multipath texture and drift terms — but NO blocking loss: nothing
  // crosses a link when the target IS the transmitter.
  const double d = geom::point_segment_distance(deployment_.link(link),
                                                deployment_.cell_center(cell));
  const double rss = radio_.baseline_rss_dbm(d < 0.5 ? 0.5 : d) +
                     link_gain_db_[link] + baseline_multipath_db(link, day) +
                     drift_.link_offset(link, day) +
                     drift_.aging_noise(link, cell, day) +
                     target_multipath_db(link, cell, day) +
                     source_gain_db(link);
  return radio_.clamp_rss(rss);
}

double Testbed::mean_rss(std::size_t link, std::size_t cell,
                         std::size_t day) const {
  if (mode_ == SensingMode::kDeviceBased) return device_rss(link, cell, day);
  const double loss = direct_loss_db(link, cell) *
                      (1.0 + shadow_blend(link, deployment_.slot_of(cell), day));
  double aging = drift_.aging_noise(link, cell, day);
  if (deployment_.band_of(cell) == link && day > 0) {
    // Largely-decrease entries age faster: deep shadowing is sensitive to
    // small geometry changes.  Deterministic draw keyed by (link,cell,day).
    rng::Rng child =
        root_.fork("band-aging").fork(link).fork(cell).fork(day);
    aging += env_.band_aging_sigma_db *
             std::sqrt(static_cast<double>(day)) * child.normal();
  }
  const double rss = radio_.baseline_rss_dbm(deployment_.link(link).length()) +
                     link_gain_db_[link] + baseline_multipath_db(link, day) +
                     drift_.link_offset(link, day) + aging - loss +
                     target_multipath_db(link, cell, day) +
                     source_gain_db(link);
  return radio_.clamp_rss(rss);
}

double Testbed::mean_rss_at(std::size_t link, geom::Point2 target,
                            std::size_t day) const {
  // Continuous positions reuse the nearest cell's static fields so a
  // trajectory through a cell agrees with the fingerprint of that cell.
  const std::size_t cell = deployment_.nearest_cell(target);
  if (mode_ == SensingMode::kDeviceBased) return device_rss(link, cell, day);
  const double loss =
      radio_.target_loss_db(deployment_.link(link), target) *
      (1.0 + shadow_blend(link, deployment_.slot_of(cell), day));
  const double rss = radio_.baseline_rss_dbm(deployment_.link(link).length()) +
                     link_gain_db_[link] + baseline_multipath_db(link, day) +
                     drift_.link_offset(link, day) - loss +
                     target_multipath_db(link, cell, day) +
                     source_gain_db(link);
  return radio_.clamp_rss(rss);
}

void Testbed::set_sources(std::vector<SourceInfo> sources,
                          std::vector<double> source_gain_db) {
  if (sources.size() != num_links()) {
    throw std::invalid_argument(
        "Testbed::set_sources: one SourceInfo per link required");
  }
  if (!source_gain_db.empty() && source_gain_db.size() != num_links()) {
    throw std::invalid_argument(
        "Testbed::set_sources: gain table must be empty or one per link");
  }
  sources_ = std::move(sources);
  source_gain_db_ = std::move(source_gain_db);
}

bool Testbed::source_missing(std::size_t link) const {
  if (link >= sources_.size()) return false;
  const SourceId id = sources_[link].id;
  for (const SourceId missing : missing_sources_) {
    if (missing == id) return true;
  }
  return false;
}

linalg::Matrix Testbed::mean_fingerprint(std::size_t day) const {
  const std::size_t m = num_links();
  const std::size_t n = num_cells();
  linalg::Matrix x(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) x(i, j) = mean_rss(i, j, day);
  }
  return x;
}

rng::Rng Testbed::fork_rng(std::string_view label) const {
  return root_.fork(label);
}

Testbed make_office_testbed(std::uint64_t seed) {
  Environment env;
  env.name = "office";
  env.width_m = 12.0;
  env.height_m = 9.0;
  env.multipath = MultipathLevel::kMedium;
  env.path_loss_exponent = 3.0;
  env.multipath_sigma_db = 2.0;
  env.shadow_morph_frac = 0.30;
  env.band_aging_sigma_db = 0.12;

  DeploymentConfig dep;
  dep.num_links = 8;         // paper: 8 links
  dep.slots_per_link = 12;   // 96 cells ~ paper's 94 effective grids
  dep.cell_spacing_m = 0.6;
  dep.area_width_m = 12.0;
  dep.area_height_m = 9.0;

  RadioParams radio;
  radio.path_loss_exponent = env.path_loss_exponent;
  return Testbed(env, dep, radio, kMaxDay, seed);
}

Testbed make_library_testbed(std::uint64_t seed) {
  Environment env;
  env.name = "library";
  env.width_m = 11.0;
  env.height_m = 8.0;
  env.multipath = MultipathLevel::kHigh;
  env.path_loss_exponent = 3.4;
  env.multipath_sigma_db = 2.6;     // metal shelves: rich NLoS
  env.shadow_morph_frac = 0.30;
  env.band_aging_sigma_db = 0.18;
  env.fading_sigma_db = 1.4;
  env.outlier_prob = 0.06;

  DeploymentConfig dep;
  dep.num_links = 6;         // paper: 6 links
  dep.slots_per_link = 12;   // 72 cells, exactly the paper's count
  dep.cell_spacing_m = 0.6;
  dep.area_width_m = 11.0;
  dep.area_height_m = 8.0;

  RadioParams radio;
  radio.path_loss_exponent = env.path_loss_exponent;
  return Testbed(env, dep, radio, kMaxDay, seed);
}

Testbed make_hall_testbed(std::uint64_t seed) {
  Environment env;
  env.name = "hall";
  env.width_m = 10.0;
  env.height_m = 10.0;
  env.multipath = MultipathLevel::kLow;
  env.path_loss_exponent = 2.2;     // open LoS space
  env.multipath_sigma_db = 1.3;
  env.shadow_morph_frac = 0.18;
  env.band_aging_sigma_db = 0.08;
  env.fading_sigma_db = 0.9;
  env.outlier_prob = 0.03;

  DeploymentConfig dep;
  dep.num_links = 8;         // paper: 8 links
  dep.slots_per_link = 15;   // 120 cells, exactly the paper's count
  dep.cell_spacing_m = 0.6;
  dep.area_width_m = 10.0;
  dep.area_height_m = 10.0;

  RadioParams radio;
  radio.path_loss_exponent = env.path_loss_exponent;
  return Testbed(env, dep, radio, kMaxDay, seed);
}

std::vector<SourceInfo> mixed_radio_sources(std::size_t num_links) {
  // First third WiFi, middle third BLE, rest LoRa (at least one of each
  // for num_links >= 3).  Ids are deployment-style, offset per
  // technology, so a source id is never a valid link index by accident.
  std::vector<SourceInfo> sources(num_links);
  const std::size_t third = num_links / 3;
  for (std::size_t i = 0; i < num_links; ++i) {
    if (i < third) {
      sources[i] = SourceInfo{SourceId(100 + i), Technology::kWifi};
    } else if (i < 2 * third) {
      sources[i] = SourceInfo{SourceId(200 + i), Technology::kBle};
    } else {
      sources[i] = SourceInfo{SourceId(300 + i), Technology::kLora};
    }
  }
  return sources;
}

Testbed make_mixed_radio_testbed(MixedRadioOptions options) {
  Environment env;
  env.name = "mixed";
  env.width_m = 12.0;
  env.height_m = 9.0;
  env.multipath = MultipathLevel::kMedium;
  env.path_loss_exponent = 3.0;
  env.multipath_sigma_db = 2.1;
  env.shadow_morph_frac = 0.28;
  env.band_aging_sigma_db = 0.12;

  DeploymentConfig dep;
  dep.num_links = options.num_links;
  dep.slots_per_link = options.slots_per_link;
  dep.cell_spacing_m = 0.6;
  dep.area_width_m = 12.0;
  dep.area_height_m = 9.0;

  RadioParams radio;
  radio.path_loss_exponent = env.path_loss_exponent;
  Testbed testbed(env, dep, radio, kMaxDay, options.seed);

  // Technology gain offsets: BLE beacons run low TX power (quieter on
  // every cell), LoRa's sub-GHz band penetrates better (hotter).  WiFi is
  // the reference technology at 0 dB, so an all-WiFi assignment would
  // leave the room byte-identical to its source-less twin.
  std::vector<SourceInfo> sources = mixed_radio_sources(dep.num_links);
  std::vector<double> gains(dep.num_links, 0.0);
  for (std::size_t i = 0; i < dep.num_links; ++i) {
    switch (sources[i].technology) {
      case Technology::kWifi: gains[i] = 0.0; break;
      case Technology::kBle: gains[i] = -4.0; break;
      case Technology::kLora: gains[i] = 2.5; break;
    }
  }
  testbed.set_sources(std::move(sources), std::move(gains));
  testbed.set_sensing_mode(options.mode);
  testbed.set_missing_sources(std::move(options.missing_sources));
  return testbed;
}

const std::vector<std::size_t>& paper_time_stamps() {
  static const std::vector<std::size_t> stamps = {0, 3, 5, 15, 45, 90};
  return stamps;
}

const std::vector<std::size_t>& paper_update_stamps() {
  static const std::vector<std::size_t> stamps = {3, 5, 15, 45, 90};
  return stamps;
}

}  // namespace iup::sim
