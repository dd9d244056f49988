#include "gnutella/index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {
namespace {

SharedFile File(const std::string& name, uint64_t size = 1000) {
  SharedFile f;
  f.filename = name;
  f.size_bytes = size;
  f.file_id = MakeFileId(name, size, 1);
  return f;
}

std::vector<const KeywordIndex::Entry*> Match(const KeywordIndex& idx,
                                              const std::string& text) {
  return idx.Match(ParsedQuery::Parse(text));
}

TEST(ParsedQueryTest, KeepsTextAndIndexableTermsWithTheirHashes) {
  auto q = ParsedQuery::Parse("Madonna - Like_a.PRAYER (Live) the mp3 x 7");
  EXPECT_EQ(q.text, "Madonna - Like_a.PRAYER (Live) the mp3 x 7");
  // Lower-cased, split on every non-alphanumeric character; "a", "x" and
  // "7" are one character long, "the" and "mp3" stop words.
  EXPECT_EQ(q.terms,
            (std::vector<std::string>{"madonna", "like", "prayer", "live"}));
  ASSERT_EQ(q.hashes.size(), q.terms.size());
  for (size_t i = 0; i < q.terms.size(); ++i) {
    EXPECT_EQ(q.hashes[i], TermHash(q.terms[i])) << q.terms[i];
  }
}

TEST(ParsedQueryTest, DuplicatesKeepFirstOccurrence) {
  auto q = ParsedQuery::Parse("Rock ROLL rock roll__ROCK 42 42");
  EXPECT_EQ(q.terms, (std::vector<std::string>{"rock", "roll", "42"}));
  ASSERT_EQ(q.hashes.size(), 3u);
  EXPECT_EQ(q.hashes[0], TermHash("rock"));
  EXPECT_EQ(q.hashes[1], TermHash("roll"));
  EXPECT_EQ(q.hashes[2], TermHash("42"));
}

TEST(ParsedQueryTest, EmptyAndStopWordOnlyTextsHaveNoTerms) {
  for (std::string text : {"", "--- ...!!!", "The MP3 of a", "a b c 1"}) {
    auto q = ParsedQuery::Parse(text);
    EXPECT_EQ(q.text, text);
    EXPECT_TRUE(q.terms.empty()) << "'" << text << "'";
    EXPECT_TRUE(q.hashes.empty()) << "'" << text << "'";
  }
}

TEST(KeywordIndexTest, SingleTermMatch) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("beatles help.mp3"), 2);
  auto m = Match(idx, "madonna");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 1u);
}

TEST(KeywordIndexTest, ConjunctiveMatchRequiresAllTerms) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("madonna vogue.mp3"), 2);
  EXPECT_EQ(Match(idx, "madonna prayer").size(), 1u);
  EXPECT_EQ(Match(idx, "madonna").size(), 2u);
  EXPECT_TRUE(Match(idx, "madonna help").empty());
}

TEST(KeywordIndexTest, StopWordsIgnoredInQueries) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  // "the" and "avi" are stop words on both sides.
  EXPECT_EQ(Match(idx, "the matrix").size(), 1u);
  EXPECT_EQ(Match(idx, "matrix avi").size(), 1u);
}

TEST(KeywordIndexTest, AllStopWordQueryMatchesNothing) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  EXPECT_TRUE(Match(idx, "the mp3").empty());
  EXPECT_TRUE(Match(idx, "").empty());
}

TEST(KeywordIndexTest, MultipleOwnersSameFilename) {
  KeywordIndex idx;
  idx.Add(File("dark side of the moon.mp3"), 1);
  idx.Add(File("dark side of the moon.mp3"), 2);
  EXPECT_EQ(Match(idx, "moon dark").size(), 2u);
}

TEST(KeywordIndexTest, RemoveOwnerHidesEntries) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 2);
  EXPECT_EQ(idx.num_entries(), 2u);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.num_entries(), 1u);
  auto m = Match(idx, "abba");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 2u);
}

TEST(KeywordIndexTest, PostingListSizes) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 1);
  EXPECT_EQ(idx.PostingListSize("abba"), 2u);
  EXPECT_EQ(idx.PostingListSize("waterloo"), 1u);
  EXPECT_EQ(idx.PostingListSize("nothing"), 0u);
}

TEST(KeywordIndexTest, MatchAgreesWithSubstringRuleOnTokenQueries) {
  // For whole-token queries over these names, the index's conjunctive
  // keyword match must agree with the Gnutella substring rule.
  std::vector<std::string> names{
      "silver hammer midnight.mp3", "silver moon.mp3",
      "hammer time club.mp3", "midnight silver hammer live.mp3"};
  KeywordIndex idx;
  for (size_t i = 0; i < names.size(); ++i) {
    idx.Add(File(names[i]), static_cast<sim::HostId>(i));
  }
  std::vector<std::vector<std::string>> queries{
      {"silver"}, {"silver", "hammer"}, {"hammer", "club"}, {"moon"},
      {"silver", "hammer", "midnight"}};
  for (const auto& q : queries) {
    std::string text;
    for (const auto& t : q) text += t + " ";
    auto matched = Match(idx, text);
    size_t expected = 0;
    for (const auto& n : names) {
      if (FilenameMatchesQuery(n, q)) ++expected;
    }
    EXPECT_EQ(matched.size(), expected);
  }
}

TEST(KeywordIndexTest, AllEntriesListsLiveOnly) {
  KeywordIndex idx;
  idx.Add(File("one.mp3x a"), 1);
  idx.Add(File("two.mp3x b"), 2);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.AllEntries().size(), 1u);
}

// Differential check against a brute-force model of every Add: Match of a
// parsed query returns exactly the live entries whose keywords hold every
// indexable query term, in entry order, and PostingListSize counts every
// entry ever added under the term (tombstoned ones too).
TEST(KeywordIndexTest, RandomizedMatchesBruteForce) {
  Rng rng(17);
  // ~200 tokens: lower-case and mixed-case words, stop words and
  // one-character tokens. "Rock" and "ROCK" index as "rock".
  std::vector<std::string> vocab{"the", "mp3", "a",    "of",   "feat",
                                 "remix", "avi", "x",  "7",    "b",
                                 "Rock", "ROCK", "rock", "DJ", "Live"};
  while (vocab.size() < 200) {
    std::string w;
    size_t len = 2 + rng.NextBelow(6);
    for (size_t i = 0; i < len; ++i) {
      char c = static_cast<char>('a' + rng.NextBelow(26));
      if (rng.NextBelow(8) == 0) c = static_cast<char>(c - 'a' + 'A');
      w.push_back(c);
    }
    vocab.push_back(w);
  }
  const char* seps[] = {" ", "_", "-", ".", " - "};
  auto make_name = [&]() {
    std::string name;
    size_t n = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) name += seps[rng.NextBelow(5)];
      name += vocab[rng.NextBelow(vocab.size())];
    }
    if (rng.NextBelow(2) == 0) name += ".mp3";
    return name;
  };

  struct ModelEntry {
    uint64_t file_id;
    sim::HostId owner;
    bool live;
    std::vector<std::string> keywords;
  };
  std::vector<ModelEntry> model;
  KeywordIndex idx;
  auto add = [&](const std::string& name, sim::HostId owner) {
    SharedFile f;
    f.filename = name;
    f.size_bytes = 1;
    f.file_id = model.size();
    model.push_back({f.file_id, owner, true, ExtractUniqueKeywords(name)});
    return f;
  };
  constexpr sim::HostId kOwners = 60;
  for (int i = 0; i < 3000; ++i) {
    auto owner = static_cast<sim::HostId>(rng.NextBelow(kOwners));
    idx.Add(add(make_name(), owner), owner);
  }
  // Drop a third of the owners, then re-publish half of those.
  for (sim::HostId owner = 0; owner < kOwners; owner += 3) {
    idx.RemoveOwner(owner);
    for (auto& e : model) {
      if (e.owner == owner) e.live = false;
    }
  }
  for (sim::HostId owner = 0; owner < kOwners; owner += 6) {
    std::vector<SharedFile> files;
    for (int i = 0; i < 40; ++i) files.push_back(add(make_name(), owner));
    idx.AddAll(files, owner);
  }
  size_t live = 0;
  for (const auto& e : model) live += e.live;
  ASSERT_EQ(idx.num_entries(), live);

  const auto& stop = DefaultStopWords();
  auto expected = [&](const std::vector<std::string>& terms) {
    std::vector<std::string> indexable;
    for (const auto& t : terms) {
      if (t.size() >= 2 && !stop.count(t)) indexable.push_back(t);
    }
    std::vector<uint64_t> ids;
    if (indexable.empty()) return ids;
    for (const auto& e : model) {
      if (!e.live) continue;
      bool all = std::all_of(
          indexable.begin(), indexable.end(), [&](const std::string& t) {
            return std::find(e.keywords.begin(), e.keywords.end(), t) !=
                   e.keywords.end();
          });
      if (all) ids.push_back(e.file_id);
    }
    return ids;
  };
  auto ids_of = [&](const std::vector<const KeywordIndex::Entry*>& got) {
    std::vector<uint64_t> ids;
    for (const auto* e : got) {
      EXPECT_EQ(e->owner, model[e->file_id].owner);
      ids.push_back(e->file_id);
    }
    return ids;
  };

  const std::vector<std::string> stops{"the", "mp3", "a", "of", "feat"};
  size_t matched = 0;
  for (int q = 0; q < 1000; ++q) {
    std::vector<std::string> terms;
    size_t n = 1 + rng.NextBelow(4);
    bool stop_only = q % 10 == 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t kind = rng.NextBelow(10);
      if (stop_only) {
        terms.push_back(stops[rng.NextBelow(stops.size())]);
      } else if (kind == 0) {
        terms.push_back("absent" + std::to_string(rng.NextBelow(50)));
      } else if (kind == 1 && !terms.empty()) {
        terms.push_back(terms[rng.NextBelow(terms.size())]);  // duplicate
      } else {
        terms.push_back(vocab[rng.NextBelow(vocab.size())]);
      }
    }
    if (q % 2 == 0) {
      // Mixed-case text with mixed separators, modelled through the
      // tokenizer.
      std::string text;
      for (const auto& t : terms) text += t + seps[rng.NextBelow(5)];
      auto want = expected(SplitTerms(text));
      ASSERT_EQ(ids_of(Match(idx, text)), want) << "query '" << text << "'";
      matched += want.size();
    } else {
      // Lower-case terms joined by spaces, modelled on the terms
      // themselves.
      std::string text;
      for (auto& t : terms) {
        t = ToLowerAscii(t);
        text += t + " ";
      }
      auto want = expected(terms);
      ASSERT_EQ(ids_of(Match(idx, text)), want) << "query #" << q;
      matched += want.size();
    }
  }
  EXPECT_GT(matched, 1000u);  // the queries really hit the index

  std::vector<std::string> probes = stops;
  for (const auto& w : vocab) probes.push_back(ToLowerAscii(w));
  probes.push_back("absent1");
  probes.push_back("");
  for (const auto& t : probes) {
    size_t count = 0;
    for (const auto& e : model) {
      count += std::count(e.keywords.begin(), e.keywords.end(), t);
    }
    EXPECT_EQ(idx.PostingListSize(t), count) << "term '" << t << "'";
  }
}

}  // namespace
}  // namespace pierstack::gnutella
