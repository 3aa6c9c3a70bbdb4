// Construction of KGE models by name — used by examples and the bench
// harness so the model is a command-line choice.
#pragma once

#include <memory>
#include <string>

#include "kge/model.hpp"

namespace dynkge::kge {

/// Create a model by name: "complex" (default in the paper), "distmult",
/// "transe", or "rotate". `rank` is the number of (complex or real)
/// components; `margin` is TransE's and RotatE's gamma (the other models
/// ignore it). The one place that maps a model name to its class: clones
/// and the serializer come through here with a KgeModel::spec(). Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<KgeModel> make_model(const std::string& name,
                                     std::int32_t num_entities,
                                     std::int32_t num_relations,
                                     std::int32_t rank,
                                     float margin = kDefaultMargin);

/// Deep copy of a model: same concrete type, shape, hyper-parameters and
/// parameter bytes. The streaming delta-refresh path clones the current
/// serving snapshot, nudges only the touched rows, and publishes the copy
/// as a new immutable version.
std::unique_ptr<KgeModel> clone_model(const KgeModel& model);

}  // namespace dynkge::kge
