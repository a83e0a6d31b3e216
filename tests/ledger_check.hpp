// Shared by the churn tests: after a resource has been built and destroyed
// many times, every MemLedger category must be back where it started.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/memledger.hpp"

namespace dgiwarp {

/// Expects each category of `ledger` at its value in `baseline`, a copy of
/// `categories()` taken earlier. A category first charged since then must
/// read 0 (a ledger never drops a category, so none can go missing).
inline void expect_ledger_at(const MemLedger& ledger,
                             const std::map<std::string, i64>& baseline) {
  for (const auto& [category, bytes] : ledger.categories()) {
    const auto it = baseline.find(category);
    EXPECT_EQ(bytes, it == baseline.end() ? 0 : it->second) << category;
  }
}

}  // namespace dgiwarp
