#include "core/setup_memo.hpp"

namespace slm::core {

namespace {

template <class K, class V>
std::optional<V> find_in(const std::deque<std::pair<K, V>>& table,
                         const K& key) {
  for (const auto& [k, v] : table) {
    if (k == key) return v;
  }
  return std::nullopt;
}

template <class K, class V>
void insert_into(std::deque<std::pair<K, V>>& table, K key, V value) {
  for (const auto& entry : table) {
    if (entry.first == key) return;
  }
  if (table.size() == SetupMemo::kCapacity) table.pop_front();
  table.emplace_back(std::move(key), std::move(value));
}

}  // namespace

std::optional<pdn::CycleResponseMatrix> SetupMemo::find(
    const ResponseKey& key) const {
  std::lock_guard<std::mutex> g(m_);
  return find_in(responses_, key);
}

std::optional<SensorBits> SetupMemo::find(const SensorBitsKey& key) const {
  std::lock_guard<std::mutex> g(m_);
  return find_in(sensor_bits_, key);
}

void SetupMemo::insert(ResponseKey key, pdn::CycleResponseMatrix value) {
  std::lock_guard<std::mutex> g(m_);
  insert_into(responses_, std::move(key), std::move(value));
}

void SetupMemo::insert(SensorBitsKey key, SensorBits value) {
  std::lock_guard<std::mutex> g(m_);
  insert_into(sensor_bits_, std::move(key), std::move(value));
}

std::size_t SetupMemo::size() const {
  std::lock_guard<std::mutex> g(m_);
  return responses_.size() + sensor_bits_.size();
}

}  // namespace slm::core
