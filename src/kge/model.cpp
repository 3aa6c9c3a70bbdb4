#include "kge/model.hpp"

namespace dynkge::kge {

double KgeModel::score(EntityId h, RelationId r, EntityId t) const {
  const Triple triple{h, r, t};
  double out = 0.0;
  score_triples_block({&triple, 1}, {&out, 1});
  return out;
}

void KgeModel::accumulate_gradients(EntityId h, RelationId r, EntityId t,
                                    float coeff, ModelGrads& grads) const {
  // Offsets, unlike spans, survive the arena growth a later creation may
  // cause; resolve the pointers once all three rows exist.
  const std::size_t gh = grads.entity.accumulate_offset(h);
  const std::size_t gt = grads.entity.accumulate_offset(t);
  const std::size_t gr = grads.relation.accumulate_offset(r);
  const GradWork work{h,
                      r,
                      t,
                      coeff,
                      grads.entity.row_at(gh).data(),
                      grads.relation.row_at(gr).data(),
                      grads.entity.row_at(gt).data()};
  accumulate_gradients_block({&work, 1});
}

}  // namespace dynkge::kge
