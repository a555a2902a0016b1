//===- TreeDiff.h - Clean/dirty classification between programs -*- C++ -*-===//
///
/// \file
/// Maps the top-level statements of a new program onto a previously seen
/// program by structural hash and classifies each as *clean* (an identical
/// subtree existed before) or *dirty* (new or edited code). Matching is a
/// longest-common-subsequence over the two hash sequences (with the usual
/// common prefix/suffix fast path), so a one-statement edit in the middle
/// of a large file dirties exactly that statement — insertions and
/// deletions shift positions without dirtying their neighbours.
///
/// Position shifts are the reason clean-vs-dirty is advisory rather than a
/// soundness boundary: a "clean" statement at a new line still produces
/// different program points, and the determinacy layer's chained
/// fingerprints (which cover positions) decide what actually replays.
///
/// No analyzer or serve code calls this. It is kept only so the benchmark
/// harness (ddbench/, which times it as `incremental.treediff_self_ms`)
/// keeps compiling, like the ExecEngine no-op in determinacy/Determinacy.h.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_INCREMENTAL_TREEDIFF_H
#define DDA_INCREMENTAL_TREEDIFF_H

#include "ast/ASTContext.h"

#include <cstdint>
#include <vector>

namespace dda {

struct TreeDiffResult {
  /// For each new top-level statement: matched old index, or -1 if dirty.
  std::vector<int64_t> OldMatch;
  size_t CleanStmts = 0;
  size_t DirtyStmts = 0;
  /// Total AST nodes inside the dirty top-level statements.
  size_t DirtyNodes = 0;
};

/// Number of AST nodes in the subtree rooted at N.
size_t subtreeNodeCount(const Node *N);

/// Diffs New's top-level statements against a prior program's top-level
/// hash sequence (as produced by topLevelHashes).
TreeDiffResult diffTopLevel(const std::vector<uint64_t> &OldHashes,
                            const Program &New);

} // namespace dda

#endif // DDA_INCREMENTAL_TREEDIFF_H
