// Round-trip and error-handling tests for input serialization, the
// canonical tree rendering, and label escaping through the version log's
// nested-set payload.

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "obs/export.h"
#include "paper_inputs.h"
#include "store/nested_set.h"

namespace oct {
namespace {

using testing_inputs::Figure2Input;

TEST(LabelEscaping, RoundTripsSpecials) {
  for (const std::string label :
       {std::string("black shirt"), std::string("100% cotton"),
        std::string("a\nb"), std::string(""), std::string("-"),
        std::string("naïve")}) {
    EXPECT_EQ(UnescapeLabel(EscapeLabel(label)), label) << label;
  }
}

TEST(LabelEscaping, EscapedFormHasNoSpaces) {
  const std::string esc = EscapeLabel("long sleeve shirt");
  EXPECT_EQ(esc.find(' '), std::string::npos);
}

TEST(InputSerialization, RoundTrip) {
  OctInput input = Figure2Input();
  input.mutable_set(1).delta_override = 0.75;
  const std::string text = SerializeInput(input);
  auto parsed = ParseInput(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->universe_size(), input.universe_size());
  ASSERT_EQ(parsed->num_sets(), input.num_sets());
  for (SetId q = 0; q < input.num_sets(); ++q) {
    EXPECT_EQ(parsed->set(q).items, input.set(q).items);
    EXPECT_DOUBLE_EQ(parsed->set(q).weight, input.set(q).weight);
    EXPECT_DOUBLE_EQ(parsed->set(q).delta_override,
                     input.set(q).delta_override);
    EXPECT_EQ(parsed->set(q).label, input.set(q).label);
  }
}

TEST(InputSerialization, RoundTripWithBounds) {
  OctInput input(3);
  input.Add(ItemSet({0, 1}), 1.0, "x");
  input.set_item_bounds({1, 2, 3});
  auto parsed = ParseInput(SerializeInput(input));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->item_bounds(), (std::vector<uint32_t>{1, 2, 3}));
}

/// Labels that stress every corner of the escaping scheme.
std::vector<std::string> AdversarialLabels() {
  return {
      "",                      // Empty (the "-" sentinel).
      "-",                     // Collides with the sentinel unless escaped.
      " ",                     // Only a space.
      "100% cotton",           // Percent mid-label.
      "%",                     // Lone escape character.
      "%25",                   // Looks like an escape sequence already.
      "%2",                    // Truncated escape.
      "two  spaces",           // Consecutive spaces.
      " leading and trailing ",
      "line\nbreak",
      "tab\there",
      "crlf\r\n",
      "% 2D -",                // Mix of all the specials.
      "ñandú 100%",            // Multi-byte UTF-8 plus a special.
  };
}

TEST(InputSerialization, PropertyAdversarialLabelsRoundTrip) {
  const auto labels = AdversarialLabels();
  OctInput input(labels.size() + 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    input.Add(ItemSet({static_cast<ItemId>(i)}), 1.0 + i, labels[i]);
  }
  const std::string text = SerializeInput(input);
  auto parsed = ParseInput(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_sets(), labels.size());
  for (SetId q = 0; q < parsed->num_sets(); ++q) {
    EXPECT_EQ(parsed->set(q).label, labels[q]) << "set " << q;
    EXPECT_EQ(parsed->set(q).items, input.set(q).items);
  }
  // Second trip is a fixpoint: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(SerializeInput(*parsed), text);
}

TEST(TreeSerialization, PropertyAdversarialLabelsRoundTrip) {
  const auto labels = AdversarialLabels();
  CategoryTree tree;
  NodeId parent = tree.root();
  for (size_t i = 0; i < labels.size(); ++i) {
    // Alternate chain/fan-out so both deep and wide shapes are exercised.
    const NodeId node = tree.AddCategory(
        i % 2 == 0 ? parent : tree.root(), labels[i]);
    tree.AssignItem(node, static_cast<ItemId>(i));
    if (i % 2 == 0) parent = node;
  }
  // Through the version log's payload format and back.
  auto parsed = store::ParseNestedSet(
      store::SerializeNestedSet(store::EncodeNestedSet(tree)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto decoded = store::DecodeNestedSet(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->NumCategories(), tree.NumCategories());
  // Every adversarial label survives on some alive node.
  for (const std::string& label : labels) {
    bool found = false;
    for (NodeId id : decoded->PreOrder()) {
      if (decoded->node(id).label == label) found = true;
    }
    EXPECT_TRUE(found) << "label lost: '" << label << "'";
  }
  EXPECT_EQ(SerializeTree(*decoded), SerializeTree(tree));
}

TEST(InputSerialization, RejectsGarbage) {
  EXPECT_FALSE(ParseInput("").ok());
  EXPECT_FALSE(ParseInput("wrong header\n").ok());
  EXPECT_FALSE(ParseInput("octree-input v1\nbogus line\n").ok());
  EXPECT_FALSE(
      ParseInput("octree-input v1\nuniverse 2\nset x - - : 0\n").ok());
  // Item outside the declared universe fails validation.
  EXPECT_FALSE(
      ParseInput("octree-input v1\nuniverse 2\nset 1 - q : 5\n").ok());
}

// Each of these crashed the parser or was read as another value.
TEST(InputSerialization, RejectsMalformedNumbers) {
  const std::string head = "octree-input v1\nuniverse 8\n";
  const std::string bad[] = {
      // Non-finite weights and thresholds.
      head + "set nan - q : 1 2\n",
      head + "set inf - q : 1 2\n",
      head + "set -inf - q : 1 2\n",
      head + "set 1 nan q : 1 2\n",
      head + "set 1e999 - q : 1 2\n",
      // A negative universe once wrapped to 18446744073709551615.
      "octree-input v1\nuniverse -1\nset 1 - q : 1\n",
      "octree-input v1\nuniverse 4294967297\nset 1 - q : 1\n",
      // Item 2^32 once became item 0, and bound 2^32 + 1 became 1.
      head + "set 1 - q : 4294967296\n",
      "octree-input v1\nuniverse 2\nbounds 1 4294967297\nset 1 - q : 1\n",
      // Signs and trailing junk.
      head + "set 1 - q : +1\n",
      head + "set 1 - q : -1\n",
      head + "set +1 - q : 1\n",
      head + "set 1 - q : 1x\n",
      "octree-input v1\nuniverse 0x8\nset 1 - q : 1\n",
  };
  for (const std::string& text : bad) {
    const auto parsed = ParseInput(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(InputSerialization, SkipsBlankLines) {
  // A line of only spaces once crashed the parser.
  const auto parsed = ParseInput(
      "octree-input v1\n   \nuniverse 4\n\n \nset 1 - q : 1 2\n  \n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->universe_size(), 4u);
  ASSERT_EQ(parsed->num_sets(), 1u);
  EXPECT_EQ(parsed->set(0).items, ItemSet({1, 2}));
}

// The largest values the format holds still parse.
TEST(InputSerialization, AcceptsTheLargestIds) {
  const auto parsed = ParseInput(
      "octree-input v1\nuniverse 4294967296\nset 1 - q : 4294967295\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->universe_size(), 4294967296u);
  EXPECT_EQ(parsed->set(0).items, ItemSet({4294967295u}));
}

TEST(TreeSerialization, CanonicalFormCompactsIdsAndTombstones) {
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "shirts", 0);
  const NodeId c = tree.AddCategory(tree.root(), "misc");
  const NodeId b = tree.AddCategory(a, "nike shirts", 1);
  const NodeId gone = tree.AddCategory(c, "gone");
  tree.AssignItem(a, 3);
  tree.AssignItem(b, 1);
  tree.AssignItem(b, 2);
  tree.AssignItem(c, 9);
  tree.RemoveNodeKeepChildren(gone);
  // Ids are renumbered in pre-order (root, shirts, nike shirts, misc) and
  // the tombstone is skipped.
  EXPECT_EQ(SerializeTree(tree),
            "octree-tree v1\n"
            "nodes 4\n"
            "node 0 - - root :\n"
            "node 1 0 0 shirts : 3\n"
            "node 2 1 1 nike%20shirts : 1 2\n"
            "node 3 0 - misc : 9\n");
}

TEST(FileIo, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/octree_io_test.txt";
  ASSERT_TRUE(obs::WriteStringToFile(path, "hello\nworld\n").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello\nworld\n");
  EXPECT_FALSE(ReadFile(path + ".missing").ok());
}

}  // namespace
}  // namespace oct
