//===- perfbench/Variants.h - Replicated webapp inputs ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inputs of the serve-mix and batch-jobs workloads: examples/webapp.taj
/// replicated K times in one app, every copy's classes renamed with a
/// variant tag, so distinct tags give distinct source bytes (and hence
/// distinct cache keys) with a known flow set. The reference flow set of
/// one copy is a hand-written file (webapp.expected), not the program's
/// own output; check() expands it to K renamed, line-shifted copies and
/// compares it with a rendered report.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERFBENCH_VARIANTS_H
#define TAJ_PERFBENCH_VARIANTS_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

class Webapp {
public:
  /// Loads the template source and the reference flows of one copy.
  bool load(const std::string &TajPath, const std::string &ExpectedPath,
            std::string &Err);

  /// The app source: K copies of the template, classes of copy I renamed
  /// to `<Class>_<Tag>_<I>`.
  std::string make(const std::string &Tag, uint32_t K) const;

  /// Flow lines of checked reports, summed.
  struct FlowCount {
    /// Reported lines that are reference flows.
    uint64_t Matched = 0;
    /// Every non-empty report line.
    uint64_t Reported = 0;
  };

  /// Compares the report lines in \p Report with K copies of the
  /// reference flows and adds its lines to \p N; on a mismatch explains
  /// the first difference in \p Why.
  bool check(const std::string &Report, const std::string &Tag, uint32_t K,
             FlowCount &N, std::string &Why) const;

  uint32_t flowsPerCopy() const {
    return static_cast<uint32_t>(Ref.size());
  }

private:
  struct Flow {
    std::string Rule, SrcClass, SrcMethod, SinkClass, SinkMethod;
    uint32_t SrcLine = 0, SinkLine = 0;
  };
  std::string rename(const std::string &Text, const std::string &Suffix) const;

  std::string Template;
  uint32_t LinesPerCopy = 0;
  std::set<std::string> Classes;
  std::vector<Flow> Ref;
};

/// Splits a `taj-cli --batch` stdout into per-app report bodies, keyed by
/// the `=== <path>` frame lines, in order. False on malformed framing or
/// an app whose `--- <path>: exit=N` trailer is not exit=0.
bool splitBatchOutput(const std::string &Out,
                      std::vector<std::pair<std::string, std::string>> &Apps,
                      std::string &Why);

} // namespace perfbench

#endif // TAJ_PERFBENCH_VARIANTS_H
