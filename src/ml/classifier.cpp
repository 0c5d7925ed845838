#include "waldo/ml/classifier.hpp"

#include "waldo/codec/codec.hpp"

namespace waldo::ml {

std::size_t Classifier::descriptor_size_bytes() const {
  codec::Writer w;
  save(w);
  return std::move(w).finish().size();
}

}  // namespace waldo::ml
