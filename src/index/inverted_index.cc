#include "index/inverted_index.h"

#include <algorithm>
#include <iterator>

namespace tvdp::index {

namespace {

/// Inserts `id` into the sorted vector `ids` unless already present.
void InsertSorted(std::vector<RecordId>* ids, RecordId id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it == ids->end() || *it != id) ids->insert(it, id);
}

}  // namespace

Status InvertedIndex::AddDocument(RecordId id,
                                  const std::vector<std::string>& terms) {
  if (terms.empty()) return Status::InvalidArgument("no terms to index");
  for (const auto& t : terms) {
    if (!t.empty()) InsertSorted(&postings_[t], id);
  }
  InsertSorted(&doc_ids_, id);
  return Status::OK();
}

size_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? 0 : it->second.size();
}

double InvertedIndex::CardinalityEstimate(
    const std::vector<std::string>& terms, bool conjunctive) const {
  if (terms.empty()) return 0;
  double est = conjunctive ? static_cast<double>(document_count()) : 0;
  for (const std::string& t : terms) {
    double df = static_cast<double>(DocumentFrequency(t));
    if (conjunctive) {
      est = std::min(est, df);
    } else {
      est += df;
    }
  }
  return std::min(est, static_cast<double>(document_count()));
}

std::vector<RecordId> InvertedIndex::QueryAnd(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return {};
  // Intersect posting lists, shortest first.
  std::vector<const std::vector<RecordId>*> lists;
  for (const auto& t : terms) {
    auto it = postings_.find(t);
    if (it == postings_.end()) return {};
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<RecordId> result = *lists[0];
  for (size_t i = 1; i < lists.size() && !result.empty(); ++i) {
    std::vector<RecordId> next;
    std::set_intersection(result.begin(), result.end(), lists[i]->begin(),
                          lists[i]->end(), std::back_inserter(next));
    result = std::move(next);
  }
  return result;
}

std::vector<RecordId> InvertedIndex::QueryOr(
    const std::vector<std::string>& terms) const {
  std::vector<RecordId> result;
  for (const auto& t : terms) {
    auto it = postings_.find(t);
    if (it == postings_.end()) continue;
    std::vector<RecordId> merged;
    merged.reserve(result.size() + it->second.size());
    std::set_union(result.begin(), result.end(), it->second.begin(),
                   it->second.end(), std::back_inserter(merged));
    result = std::move(merged);
  }
  return result;
}

}  // namespace tvdp::index
