#include "data/dataset.h"

#include <string>
#include <utility>

#include "common/profile.h"
#include "linalg/kernels.h"

namespace multiclust {

Dataset::Dataset(Matrix data) : Dataset(std::move(data), {}) {}

Dataset::Dataset(Matrix data, std::vector<std::string> column_names)
    : data_(std::move(data)), column_names_(std::move(column_names)) {
  while (column_names_.size() < data_.cols()) {
    // Built by appending: GCC 12 warns -Wrestrict on the inlined
    // `"c" + std::to_string(j)`.
    std::string name = "c";
    name += std::to_string(column_names_.size());
    column_names_.push_back(std::move(name));
  }
}

Result<size_t> Dataset::ColumnIndex(const std::string& name) const {
  for (size_t j = 0; j < column_names_.size(); ++j) {
    if (column_names_[j] == name) return j;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Status Dataset::AddGroundTruth(const std::string& name,
                               std::vector<int> labels) {
  if (labels.size() != num_objects()) {
    return Status::InvalidArgument(
        "ground truth '" + name + "' has " + std::to_string(labels.size()) +
        " labels for " + std::to_string(num_objects()) + " objects");
  }
  if (ground_truths_.find(name) == ground_truths_.end()) {
    truth_order_.push_back(name);
  }
  // Label tables are the dataset's own storage growth (the data matrix
  // counts itself at construction).
  telemetry::CountAlloc(labels.size() * sizeof(int));
  ground_truths_[name] = std::move(labels);
  return Status::OK();
}

Result<std::vector<int>> Dataset::GroundTruth(const std::string& name) const {
  auto it = ground_truths_.find(name);
  if (it == ground_truths_.end()) {
    return Status::NotFound("no ground truth named '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Dataset::GroundTruthNames() const {
  return truth_order_;
}

double Dataset::SubspaceSquaredDistance(
    size_t i, size_t j, const std::vector<size_t>& dims) const {
  const double* a = data_.row_data(i);
  const double* b = data_.row_data(j);
  double s = 0.0;
  for (size_t d : dims) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

double Dataset::SquaredDistance(size_t i, size_t j) const {
  return kernels::SquaredDistance(data_.row_data(i), data_.row_data(j),
                                  data_.cols());
}

}  // namespace multiclust
