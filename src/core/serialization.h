// Line-oriented text renderings of OCT inputs and category trees, with
// percent-escaped labels (shared with the version log's record formats).
//
//   - octree-input v1 is a persistence format: SerializeInput/ParseInput
//     round-trip an OctInput exactly, so runs are auditable and replayable.
//   - octree-tree v1 (SerializeTree) is the canonical rendering of a tree
//     that equality checks compare. It is not a storage format and has no
//     parser: trees reach disk only as store::VersionLog's nested-set
//     records (store/version_log.h), which keep the lineage taxonomists
//     diff across the ~90-day regenerations of Section 5.1.
//
// Formats (one record per line, space-separated):
//   octree-input v1
//   universe <size>
//   bounds <b0> <b1> ...            (optional; omitted when all 1)
//   set <weight> <delta|-> <label> : <item> <item> ...
//
//   octree-tree v1
//   nodes <count>
//   node <id> <parent|-> <source_set|-> <label> : <direct item> ...
// Node ids are pre-order-compacted; id 0 is the root.

#ifndef OCT_CORE_SERIALIZATION_H_
#define OCT_CORE_SERIALIZATION_H_

#include <string>

#include "core/category_tree.h"
#include "core/input.h"
#include "util/status.h"

namespace oct {

/// Escapes a label for embedding in the line format (space, %, newline).
std::string EscapeLabel(const std::string& label);
/// Reverses EscapeLabel. Invalid escapes are kept verbatim.
std::string UnescapeLabel(const std::string& escaped);

/// Renders `input` in the octree-input v1 format.
std::string SerializeInput(const OctInput& input);

/// Parses an octree-input v1 document.
Result<OctInput> ParseInput(const std::string& text);

/// Renders `tree` (alive nodes only, ids compacted) in octree-tree v1. The
/// rendering covers shape, child order, labels, source sets and direct
/// items, so comparing two renderings compares the trees.
std::string SerializeTree(const CategoryTree& tree);

/// Reads a whole file. (Writes go through obs::WriteStringToFile, which
/// checks the final flush.)
Result<std::string> ReadFile(const std::string& path);

}  // namespace oct

#endif  // OCT_CORE_SERIALIZATION_H_
