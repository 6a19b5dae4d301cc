#include "kb/alias_index.h"

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tenet {
namespace kb {
namespace {

TEST(AliasIndexTest, LookupIsCaseInsensitive) {
  AliasIndex index;
  index.Add("Michael Jordan", ConceptRef::Entity(1), 1.0);
  index.Finalize();
  EXPECT_EQ(index.LookupEntities("michael jordan").size(), 1u);
  EXPECT_EQ(index.LookupEntities("MICHAEL JORDAN").size(), 1u);
  EXPECT_EQ(index.LookupEntities("Michael Jordan").size(), 1u);
  EXPECT_TRUE(index.LookupEntities("michael").empty());
}

TEST(AliasIndexTest, PriorsNormalizeToOnePerKind) {
  AliasIndex index;
  // Basketball player 70% popular, professor 30%.
  index.Add("Michael Jordan", ConceptRef::Entity(0), 7.0);
  index.Add("Michael Jordan", ConceptRef::Entity(1), 3.0);
  // A predicate sharing the surface must not disturb entity priors.
  index.Add("Michael Jordan", ConceptRef::Predicate(0), 5.0);
  index.Finalize();

  std::span<const AliasPosting> entities =
      index.LookupEntities("michael jordan");
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_EQ(entities[0].concept_ref.id, 0);  // most popular first
  EXPECT_NEAR(entities[0].prior, 0.7, 1e-9);
  EXPECT_NEAR(entities[1].prior, 0.3, 1e-9);

  std::span<const AliasPosting> predicates =
      index.LookupPredicates("michael jordan");
  ASSERT_EQ(predicates.size(), 1u);
  EXPECT_NEAR(predicates[0].prior, 1.0, 1e-9);
}

TEST(AliasIndexTest, DuplicatePostingAccumulates) {
  AliasIndex index;
  index.Add("jordan", ConceptRef::Entity(4), 1.0);
  index.Add("jordan", ConceptRef::Entity(4), 2.0);
  index.Add("jordan", ConceptRef::Entity(5), 3.0);
  index.Finalize();
  std::span<const AliasPosting> postings = index.LookupEntities("jordan");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_NEAR(postings[0].prior, 0.5, 1e-9);
  EXPECT_NEAR(postings[1].prior, 0.5, 1e-9);
}

TEST(AliasIndexTest, UnknownSurfaceIsEmpty) {
  AliasIndex index;
  index.Add("known", ConceptRef::Entity(0), 1.0);
  index.Finalize();
  EXPECT_TRUE(index.LookupEntities("unknown").empty());
  EXPECT_TRUE(index.LookupPredicates("unknown").empty());
  EXPECT_TRUE(index.LookupPredicates("known").empty());
  EXPECT_TRUE(index.LookupPredicates("Known").empty());
  EXPECT_FALSE(index.LookupEntities("Known").empty());
}

TEST(AliasIndexTest, EmptySurfaceIgnored) {
  AliasIndex index;
  index.Add("", ConceptRef::Entity(0), 1.0);
  index.Finalize();
  EXPECT_EQ(index.num_surfaces(), 0u);
}

TEST(AliasIndexTest, HighBitSurfaceBytesSurviveFolding) {
  // Regression: a locale-based tolower corrupts bytes >= 0x80 (UTF-8
  // continuation bytes), so "Café" would stop matching itself after a
  // save/load cycle.  The ASCII fold must treat the C3 A9 pair as opaque.
  AliasIndex index;
  index.Add("Caf\xC3\xA9", ConceptRef::Entity(1), 1.0);
  index.Finalize();
  EXPECT_EQ(index.LookupEntities("Caf\xC3\xA9").size(), 1u);
  EXPECT_EQ(index.LookupEntities("caf\xC3\xA9").size(), 1u);  // ASCII folds
  // Uppercase 'É' is a *different* byte sequence (C3 89): the ASCII fold
  // must not alias it onto 'é' the way a Latin-1 tolower would.
  EXPECT_TRUE(index.LookupEntities("CAF\xC3\x89").empty());
}

TEST(AliasIndexDeathTest, AddAfterFinalizeAborts) {
  AliasIndex index;
  index.Finalize();
  EXPECT_DEATH(index.Add("x", ConceptRef::Entity(0), 1.0), "Finalize");
}

}  // namespace
}  // namespace kb
}  // namespace tenet
