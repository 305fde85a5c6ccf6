#ifndef TVDP_INDEX_INVERTED_INDEX_H_
#define TVDP_INDEX_INVERTED_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/rtree.h"

namespace tvdp::index {

/// Inverted keyword index (Zobel & Moffat, CSUR 2006) over the textual
/// descriptors (manual keywords) of the TVDP data model. Posting lists are
/// sorted record ids, so boolean queries merge them in one pass.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Indexes `terms` for document `id`. Terms are used as-is (callers
  /// normally pass TokenizeWords output). Re-adding an id adds its new
  /// terms.
  Status AddDocument(RecordId id, const std::vector<std::string>& terms);

  /// Documents containing every query term (conjunctive boolean).
  std::vector<RecordId> QueryAnd(const std::vector<std::string>& terms) const;

  /// Documents containing at least one query term (disjunctive boolean).
  std::vector<RecordId> QueryOr(const std::vector<std::string>& terms) const;

  /// Number of distinct indexed terms.
  size_t vocabulary_size() const { return postings_.size(); }
  /// Number of distinct indexed documents.
  size_t document_count() const { return doc_ids_.size(); }
  /// Documents containing `term`.
  size_t DocumentFrequency(const std::string& term) const;

  /// Statistics hook for the query planner: estimated result size of a
  /// boolean query over `terms`. Conjunctive: the rarest term's document
  /// frequency (an upper bound, exact for single terms). Disjunctive: the
  /// summed frequencies capped at the corpus size (an upper bound). Never
  /// touches posting-list contents.
  double CardinalityEstimate(const std::vector<std::string>& terms,
                             bool conjunctive) const;

 private:
  // term -> ids of the documents containing it, sorted.
  std::map<std::string, std::vector<RecordId>> postings_;
  // Every indexed document id, sorted.
  std::vector<RecordId> doc_ids_;
};

}  // namespace tvdp::index

#endif  // TVDP_INDEX_INVERTED_INDEX_H_
