// KeywordIndex: the per-ultrapeer inverted index over shared filenames.
//
// An ultrapeer answers queries against its own files plus the file lists
// its leaves published. Matching is conjunctive keyword match: a file
// matches iff every query keyword appears among the file's keywords
// (tokenized and stop-word-filtered identically on both sides). A query
// is tokenized once, into a ParsedQuery that carries each keyword's term
// hash, so a match probes the term table without touching the query text.
//
// Layout: entries and terms live in dense vectors; each term owns its
// posting list (entry indices, ascending by construction). Terms are found
// through a linear-probing slot table kept at load <= 1/2, whose slots
// carry the top 32 bits of the term hash so a probe compares term text
// only on a tag hit — a miss never touches a term or its postings. Terms
// are never deleted: RemoveOwner only tombstones entries, whose indices
// stay in the posting lists (PostingListSize counts them), so the slot
// table is insert-only and probing needs no tombstones (the idiom of
// pier::JoinTable).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gnutella/types.h"

namespace pierstack::gnutella {

/// The hash a KeywordIndex files a term under.
uint64_t TermHash(std::string_view term);

/// A query as every hop matches it, parsed once where the query enters the
/// network: the text as it travels on the wire, and its indexable terms
/// (SplitTerms minus stop words and one-character terms, each term once,
/// in first-occurrence order) with their TermHashes. Immutable, so every
/// hop, message copy and shard that sees the query shares one instance.
struct ParsedQuery {
  std::string text;
  std::vector<std::string> terms;
  std::vector<uint64_t> hashes;  ///< hashes[i] == TermHash(terms[i])

  static ParsedQuery Parse(std::string text);
};

/// Append-oriented inverted index of shared files.
class KeywordIndex {
 public:
  struct Entry {
    uint64_t file_id;
    std::string filename;
    uint64_t size_bytes;
    sim::HostId owner;
  };

  /// Indexes one file for `owner`.
  void Add(const SharedFile& file, sim::HostId owner);

  /// Indexes a whole file list (e.g. a leaf's published library).
  void AddAll(const std::vector<SharedFile>& files, sim::HostId owner);

  /// Removes every entry owned by `owner` (leaf disconnect). O(index).
  void RemoveOwner(sim::HostId owner);

  /// All live entries matching every term of `query`, in ascending entry
  /// (insertion) order: one probe per term with its parsed hash, stopping
  /// at the first term never indexed. A query with no indexable term
  /// matches nothing — Gnutella drops empty queries.
  std::vector<const Entry*> Match(const ParsedQuery& query) const;

  /// Number of posting-list entries that a lookup of `term` would scan —
  /// the local analogue of the paper's posting-list length. Tombstoned
  /// entries still count.
  size_t PostingListSize(const std::string& term) const;

  size_t num_entries() const { return live_entries_; }

  /// All live entries (diagnostics / BrowseHost).
  std::vector<const Entry*> AllEntries() const;

 private:
  struct Term {
    std::string text;
    std::vector<uint32_t> postings;  // entry indices, ascending
  };
  struct Slot {
    uint32_t tag;    // top 32 bits of the term hash
    uint32_t term1;  // 1-based index into terms_; 0 = empty
  };

  /// False if no term hashed like `h` was ever indexed; reads slots only.
  bool HasTag(uint64_t h) const;
  /// The term `text` (hashed to `h`), or nullptr if it was never indexed.
  const Term* FindTerm(std::string_view text, uint64_t h) const;
  /// The term `text`, created with an empty posting list if absent.
  Term& InternTerm(std::string_view text);
  /// Points the first free slot of hash `h`'s probe run at term `term1`.
  void Place(uint64_t h, uint32_t term1);
  void GrowSlots();

  std::vector<Entry> entries_;  // tombstoned via owner==kInvalidHost
  std::vector<Term> terms_;     // first-indexed order
  std::vector<Slot> slots_;
  size_t live_entries_ = 0;

  bool Live(uint32_t idx) const {
    return entries_[idx].owner != sim::kInvalidHost;
  }
};

}  // namespace pierstack::gnutella
