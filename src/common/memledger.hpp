// Memory accounting ledger.
//
// Figure 11 of the paper compares whole-stack memory (application + socket
// slab + iWARP state) between UD and RC. Every stateful stack object
// (sockets, QPs, TCP connection blocks, buffer pools) charges its footprint
// to a MemLedger category so the experiment measures real allocated state.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/types.hpp"

namespace dgiwarp {

class MemLedger {
 public:
  void add(const std::string& category, i64 bytes);
  void sub(const std::string& category, i64 bytes) { add(category, -bytes); }

  i64 total() const;
  i64 category(const std::string& name) const;
  const std::map<std::string, i64>& categories() const { return by_cat_; }

  /// Print a human-readable breakdown (used by fig11 and sip_loadtest).
  void dump(const std::string& title) const;

 private:
  std::map<std::string, i64> by_cat_;
};

/// RAII charge: credits the ledger on construction, refunds on destruction.
/// Holds shared ownership of the ledger: charged objects can legitimately
/// outlive their host (e.g. a TCP socket whose receive wakeup is still
/// scheduled).
class MemCharge {
 public:
  MemCharge() = default;
  MemCharge(std::shared_ptr<MemLedger> ledger, std::string category, i64 bytes)
      : ledger_(std::move(ledger)), category_(std::move(category)),
        bytes_(bytes) {
    if (ledger_) ledger_->add(category_, bytes_);
  }
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;
  MemCharge(MemCharge&& o) noexcept { *this = std::move(o); }
  MemCharge& operator=(MemCharge&& o) noexcept {
    release();
    ledger_ = o.ledger_;
    category_ = std::move(o.category_);
    bytes_ = o.bytes_;
    o.ledger_ = nullptr;
    o.bytes_ = 0;
    return *this;
  }
  ~MemCharge() { release(); }

  /// Adjust the charged amount (e.g. a growing buffer pool).
  void resize(i64 new_bytes) {
    if (ledger_) ledger_->add(category_, new_bytes - bytes_);
    bytes_ = new_bytes;
  }

  i64 bytes() const { return bytes_; }

 private:
  void release() {
    if (ledger_) ledger_->add(category_, -bytes_);
    ledger_.reset();
    bytes_ = 0;
  }
  std::shared_ptr<MemLedger> ledger_;
  std::string category_;
  i64 bytes_ = 0;
};

}  // namespace dgiwarp
