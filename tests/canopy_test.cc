#include "core/canopy.h"

#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

text::Gazetteer RembrandtGazetteer() {
  text::Gazetteer g;
  g.AddSurface("Rembrandt", kb::EntityType::kPerson);
  g.AddSurface("The Storm", kb::EntityType::kWork);
  g.AddSurface("Sea", kb::EntityType::kLocation);
  g.AddSurface("Galilee", kb::EntityType::kLocation);
  g.AddSurface("The Storm on the Sea of Galilee", kb::EntityType::kWork);
  return g;
}

text::ExtractionResult RembrandtExtraction() {
  text::ExtractionResult r;
  auto add_mention = [&r](const std::string& surface, int begin, int end) {
    text::ShortMention m;
    m.surface = surface;
    m.sentence = 0;
    m.token_begin = begin;
    m.token_end = end;
    r.mentions.push_back(m);
  };
  add_mention("Rembrandt", 0, 1);
  add_mention("The Storm", 2, 4);
  add_mention("Sea", 6, 7);
  add_mention("Galilee", 8, 9);
  r.link_after.assign(4, std::nullopt);
  r.link_after[1] =
      text::Connector{text::ConnectorKind::kPreposition, "on the"};
  r.link_after[2] = text::Connector{text::ConnectorKind::kPreposition, "of"};
  text::ExtractedRelation rel;
  rel.lemma = "paint";
  rel.raw = "painted";
  rel.sentence = 0;
  r.relations.push_back(rel);
  return r;
}

TEST(CanopyTest, SegmentationCount) {
  EXPECT_EQ(NumContiguousSegmentations(0), 1);
  EXPECT_EQ(NumContiguousSegmentations(1), 1);
  EXPECT_EQ(NumContiguousSegmentations(2), 2);
  EXPECT_EQ(NumContiguousSegmentations(3), 4);  // Table 1: 4 canopies
  EXPECT_EQ(NumContiguousSegmentations(5), 16);
  EXPECT_EQ(NumContiguousSegmentations(63), int64_t{1} << 62);
  EXPECT_EQ(NumContiguousSegmentations(64),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(NumContiguousSegmentations(70),
            std::numeric_limits<int64_t>::max());
}

TEST(CanopyTest, RembrandtTableOneScenario) {
  text::Gazetteer g = RembrandtGazetteer();
  MentionSet set = BuildMentionSet(RembrandtExtraction(), &g);

  // Groups: {Rembrandt}, {The Storm, Sea, Galilee}, {paint}.
  ASSERT_EQ(set.num_groups(), 3);
  EXPECT_EQ(set.groups[0].members.size(), 1u);
  EXPECT_EQ(set.groups[0].canopies.size(), 1u);

  const MentionGroup& storm = set.groups[1];
  EXPECT_EQ(storm.short_mentions.size(), 3u);
  // 2^(3-1) = 4 canopies (Table 1).
  ASSERT_EQ(storm.canopies.size(), 4u);

  // Collect all variant surfaces of the group.
  std::set<std::string> surfaces;
  for (int id : storm.members) surfaces.insert(set.mention(id).surface);
  EXPECT_TRUE(surfaces.count("The Storm"));
  EXPECT_TRUE(surfaces.count("Sea"));
  EXPECT_TRUE(surfaces.count("Galilee"));
  EXPECT_TRUE(surfaces.count("The Storm on the Sea"));
  EXPECT_TRUE(surfaces.count("Sea of Galilee"));
  EXPECT_TRUE(surfaces.count("The Storm on the Sea of Galilee"));
  EXPECT_EQ(surfaces.size(), 6u);

  // Canopy block counts follow the segmentations of 3 shorts: 3, 2, 2, 1.
  std::multiset<size_t> block_counts;
  for (const Canopy& canopy : storm.canopies) {
    block_counts.insert(canopy.mentions.size());
  }
  EXPECT_EQ(block_counts, (std::multiset<size_t>{1, 2, 2, 3}));

  // The fully merged canopy exists and is a single mention typed as a work
  // (gazetteer knows the full label).
  bool found_full = false;
  for (const Canopy& canopy : storm.canopies) {
    if (canopy.mentions.size() == 1 &&
        set.mention(canopy.mentions[0]).surface ==
            "The Storm on the Sea of Galilee") {
      found_full = true;
      EXPECT_EQ(set.mention(canopy.mentions[0]).type, kb::EntityType::kWork);
    }
  }
  EXPECT_TRUE(found_full);
}

TEST(CanopyTest, RelationalMentionIsSingletonGroup) {
  text::Gazetteer g = RembrandtGazetteer();
  MentionSet set = BuildMentionSet(RembrandtExtraction(), &g);
  bool found = false;
  for (int m = 0; m < set.num_mentions(); ++m) {
    if (set.mention(m).is_relational()) {
      found = true;
      EXPECT_EQ(set.mention(m).surface, "paint");
      const MentionGroup& group = set.groups[set.mention(m).group];
      EXPECT_EQ(group.members.size(), 1u);
      EXPECT_EQ(group.canopies.size(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CanopyTest, RepeatedSingletonSurfacesMerge) {
  text::Gazetteer g = RembrandtGazetteer();
  text::ExtractionResult r;
  for (int s = 0; s < 3; ++s) {
    text::ShortMention m;
    m.surface = "Rembrandt";
    m.sentence = s;
    m.token_begin = s * 10;
    m.token_end = s * 10 + 1;
    r.mentions.push_back(m);
  }
  r.link_after.assign(3, std::nullopt);
  MentionSet set = BuildMentionSet(r, &g);
  ASSERT_EQ(set.num_mentions(), 1);
  EXPECT_EQ(set.mention(0).sentences, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(set.num_groups(), 1);

  // Canonicalization ignores ASCII case; the first surface is kept.
  r.mentions[1].surface = "REMBRANDT";
  r.mentions[2].surface = "rembrandt";
  set = BuildMentionSet(r, &g);
  ASSERT_EQ(set.num_mentions(), 1);
  EXPECT_EQ(set.mention(0).surface, "Rembrandt");
  EXPECT_EQ(set.mention(0).sentences, (std::vector<int>{0, 1, 2}));
}

TEST(CanopyTest, RepeatedRelationalLemmasMerge) {
  text::Gazetteer g = RembrandtGazetteer();
  text::ExtractionResult r;
  for (int s = 0; s < 2; ++s) {
    text::ExtractedRelation rel;
    rel.lemma = "visit";
    rel.raw = s == 0 ? "visited" : "visits";
    rel.sentence = s;
    r.relations.push_back(rel);
  }
  MentionSet set = BuildMentionSet(r, &g);
  ASSERT_EQ(set.num_mentions(), 1);
  EXPECT_TRUE(set.mention(0).is_relational());
  EXPECT_EQ(set.mention(0).sentences, (std::vector<int>{0, 1}));
}

TEST(CanopyTest, LargeGroupFallsBackToTwoCanopies) {
  text::Gazetteer g = RembrandtGazetteer();
  // 65 and 70 chain past the 64 boundaries one machine word can hold.
  for (const int n : {12, 65, 70}) {
    SCOPED_TRACE(n);
    text::ExtractionResult r;
    for (int i = 0; i < n; ++i) {
      text::ShortMention m;
      m.surface = "Part" + std::to_string(i);
      m.sentence = 0;
      m.token_begin = 2 * i;
      m.token_end = 2 * i + 1;
      r.mentions.push_back(m);
    }
    r.link_after.assign(n, std::nullopt);
    for (int i = 0; i + 1 < n; ++i) {
      r.link_after[i] =
          text::Connector{text::ConnectorKind::kConjunction, "and"};
    }
    MentionSet set = BuildMentionSet(r, &g);
    ASSERT_EQ(set.num_groups(), 1);
    EXPECT_EQ(set.groups[0].canopies.size(), 2u);  // all-short + all-merged
    EXPECT_EQ(set.groups[0].canopies[0].mentions.size(),
              static_cast<size_t>(n));
    EXPECT_EQ(set.groups[0].canopies[1].mentions.size(), 1u);
  }
}

TEST(CanopyTest, SentencesSharedCheck) {
  Mention a;
  a.sentences = {0, 2};
  Mention b;
  b.sentences = {2, 3};
  Mention c;
  c.sentences = {1};
  EXPECT_TRUE(a.SharesSentence(b));
  EXPECT_FALSE(a.SharesSentence(c));
  EXPECT_TRUE(a.InSentence(2));
  EXPECT_FALSE(a.InSentence(1));
}

}  // namespace
}  // namespace core
}  // namespace tenet
