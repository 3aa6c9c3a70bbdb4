#include "kge/model_factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "kge/complex_model.hpp"
#include "kge/distmult_model.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {

std::unique_ptr<KgeModel> make_model(const std::string& name,
                                     std::int32_t num_entities,
                                     std::int32_t num_relations,
                                     std::int32_t rank, float margin) {
  if (name == "complex") {
    return std::make_unique<ComplExModel>(num_entities, num_relations, rank);
  }
  if (name == "distmult") {
    return std::make_unique<DistMultModel>(num_entities, num_relations, rank);
  }
  if (name == "transe") {
    return std::make_unique<TransEModel>(num_entities, num_relations, rank,
                                         margin);
  }
  if (name == "rotate") {
    return std::make_unique<RotatEModel>(num_entities, num_relations, rank,
                                         margin);
  }
  throw std::invalid_argument("unknown KGE model: " + name);
}

std::unique_ptr<KgeModel> clone_model(const KgeModel& model) {
  const ModelSpec spec = model.spec();
  auto clone = make_model(spec.name, model.num_entities(),
                          model.num_relations(), spec.rank, spec.margin);
  clone->set_init_scale(model.init_scale());
  std::copy(model.entities().flat().begin(), model.entities().flat().end(),
            clone->entities().flat().begin());
  std::copy(model.relations().flat().begin(), model.relations().flat().end(),
            clone->relations().flat().begin());
  return clone;
}

}  // namespace dynkge::kge
