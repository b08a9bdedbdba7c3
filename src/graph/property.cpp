#include "graph/property.h"

namespace graphbig::graph {

namespace {

std::size_t value_bytes(const PropertyValue& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return s->size();
  if (const auto* t = std::get_if<std::vector<double>>(&v)) {
    return t->size() * sizeof(double);
  }
  return sizeof(double);
}

}  // namespace

const PropertyMap::Entry* PropertyMap::find(PropKey key) const {
  for (const auto& e : entries_) {
    trace::read(trace::MemKind::kProperty, &e, sizeof(Entry));
    if (e.key == key) return &e;
  }
  return nullptr;
}

PropertyMap::Entry* PropertyMap::find(PropKey key) {
  return const_cast<Entry*>(
      static_cast<const PropertyMap*>(this)->find(key));
}

void PropertyMap::set(PropKey key, PropertyValue value) {
  trace::block(trace::kBlockPropertyWrite);
  if (Entry* e = find(key)) {
    e->value = std::move(value);
    trace::write(trace::MemKind::kProperty, e,
                 static_cast<std::uint32_t>(value_bytes(e->value)));
    return;
  }
  entries_.push_back(Entry{key, std::move(value)});
  trace::write(trace::MemKind::kProperty, &entries_.back(),
               static_cast<std::uint32_t>(sizeof(Entry)));
}

const PropertyValue* PropertyMap::get(PropKey key) const {
  trace::block(trace::kBlockPropertyRead);
  const Entry* e = find(key);
  return e != nullptr ? &e->value : nullptr;
}

PropertyValue* PropertyMap::get_mutable(PropKey key) {
  trace::block(trace::kBlockPropertyRead);
  Entry* e = find(key);
  return e != nullptr ? &e->value : nullptr;
}

std::int64_t PropertyMap::get_int(PropKey key, std::int64_t fallback) const {
  const PropertyValue* v = get(key);
  if (v == nullptr) return fallback;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  return fallback;
}

double PropertyMap::get_double(PropKey key, double fallback) const {
  const PropertyValue* v = get(key);
  if (v == nullptr) return fallback;
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

void PropertyMap::set_int(PropKey key, std::int64_t v) {
  trace::block(trace::kBlockPropertyWrite);
  if (Entry* e = find(key)) {
    e->value = v;
    trace::write(trace::MemKind::kProperty, e, sizeof(std::int64_t));
    return;
  }
  entries_.emplace_back(key, v);
  trace::write(trace::MemKind::kProperty, &entries_.back(), sizeof(Entry));
}

void PropertyMap::set_double(PropKey key, double v) {
  trace::block(trace::kBlockPropertyWrite);
  if (Entry* e = find(key)) {
    e->value = v;
    trace::write(trace::MemKind::kProperty, e, sizeof(double));
    return;
  }
  entries_.emplace_back(key, v);
  trace::write(trace::MemKind::kProperty, &entries_.back(), sizeof(Entry));
}

bool PropertyMap::erase(PropKey key) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key) {
      entries_[i] = std::move(entries_.back());
      entries_.pop_back();
      return true;
    }
  }
  return false;
}

std::size_t PropertyMap::footprint_bytes() const {
  std::size_t total = entries_.capacity() * sizeof(Entry);
  for (const auto& e : entries_) total += value_bytes(e.value);
  return total;
}

}  // namespace graphbig::graph
