// Host -> device transfer pricing (the T task). The upload itself happens
// when a backend opens its device session (frameworks::detail::
// open_session); this prices a move through the PCIe model. SALIENT-style
// frameworks and Prepro-GT stage embeddings in pinned memory; baseline
// frameworks pay the pageable staging copy.
#pragma once

#include <cstddef>

#include "gpusim/device.hpp"
#include "gpusim/pcie.hpp"

namespace gt::sampling {

class Transfer {
 public:
  /// The device is the upload's destination; pricing does not read it.
  Transfer(gpusim::Device& /*dev*/, gpusim::PcieModel pcie, bool pinned)
      : pcie_(pcie), pinned_(pinned) {}

  bool pinned() const noexcept { return pinned_; }

  /// Time to move `bytes` under this transfer's pinning mode.
  double transfer_us(std::size_t bytes) const {
    return pcie_.transfer_us(bytes, pinned_);
  }

 private:
  gpusim::PcieModel pcie_;
  bool pinned_;
};

}  // namespace gt::sampling
