// The hardware-backend seam: one stable interface, many swappable noisy
// inference substrates.
//
// The paper evaluates the *same* trained networks under two hardware
// substrates — hybrid 8T-6T SRAM activation memories and memristive
// crossbars. A HardwareBackend takes a trained network, installs its hardware
// model onto it in place (prepare), and then serves batched forward passes
// plus an energy/area estimate. Attack harnesses select a *grad backend* and
// an *eval backend*; the paper's attack modes fall out of that pairing:
//
//   Attack-SW: grad = eval = ideal
//   SH:        grad = ideal,   eval = sram/xbar
//   HH:        grad = eval = sram/xbar
//
// Concrete backends: IdealBackend (software reference), SramBackend
// (bit-error noise hooks + Fig. 4 layer selection), XbarBackend (crossbar
// mapper, effective-weight write-back). String-keyed construction lives in
// hw/registry.hpp.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "models/vgg.hpp"
#include "nn/module.hpp"

namespace rhw::hw {

// Energy/area estimate for one prepared backend. Absolute numbers come from
// the sram/xbar energy models; `details` carries backend-specific line items
// as printable key/value pairs.
struct EnergyReport {
  std::string backend;
  double energy_nj = 0.0;  // dynamic energy estimate (see each backend's doc)
  double area_um2 = 0.0;
  std::vector<std::pair<std::string, std::string>> details;

  // One-line "backend: energy, area, k=v, ..." rendering for logs/tables.
  std::string summary() const;
};

class HardwareBackend;
using BackendPtr = std::unique_ptr<HardwareBackend>;

class HardwareBackend {
 public:
  virtual ~HardwareBackend() = default;

  // Stable key of this backend kind ("ideal", "sram", "xbar") — matches the
  // registry key it was created under.
  virtual std::string name() const = 0;

  // Installs the hardware model onto the network in place (noise hooks,
  // crossbar weight mapping) and puts it in eval mode. The Model overload
  // uses the paper's activation-memory site list; the bare-module overload
  // derives sites from the module tree (derive_activation_sites). The
  // optional calibration set feeds backends whose configuration is
  // data-driven (the SRAM layer-selection methodology). Call once per
  // network.
  void prepare(models::Model& model,
               const data::Dataset* calibration = nullptr);
  void prepare(nn::Module& net, const data::Dataset* calibration = nullptr);

  bool prepared() const { return net_ != nullptr; }
  // The prepared hardware network — what attacks run their forward/backward
  // passes through. Throws std::logic_error before prepare().
  nn::Module& module() const;

  // Batched inference through the prepared hardware model: module().forward
  // with this substrate's noise hooks active.
  Tensor forward(const Tensor& x);

  // Energy/area estimate of the prepared configuration (sram/xbar energy
  // models); the base implementation returns an empty report carrying only
  // name(). Valid after prepare().
  virtual EnergyReport energy_report() const;

  // A fresh, unprepared backend of the same kind and configuration whose
  // prepare() will reproduce this backend's prepared state bit-for-bit on an
  // identical network clone — without re-running data-driven calibration
  // (e.g. SramBackend carries its installed site selection over, even an
  // empty one). Called only by defenses::prepare_arm, which builds every
  // sweep replica and serving lane. Returns null when the backend cannot
  // replicate itself; prepare_arm then rebuilds from the spec and
  // calibrates.
  virtual BackendPtr replicate() const { return nullptr; }

 protected:
  virtual void do_prepare(nn::Module& net,
                          const std::vector<models::ActivationSite>& sites,
                          const data::Dataset* calibration) = 0;

  nn::Module* net_ = nullptr;
  std::vector<models::ActivationSite> sites_;
};

// Best-effort reconstruction of activation-memory sites from a bare module
// tree: the output of every ReLU and pooling layer, numbered in execution
// order ("(P)" suffix on pooling sites, mirroring the paper's labels). Model
// builders (models/vgg.cpp, models/resnet.cpp) record the authoritative
// lists; this heuristic unlocks site-based backends for hand-built modules.
std::vector<models::ActivationSite> derive_activation_sites(nn::Module& root);

}  // namespace rhw::hw
