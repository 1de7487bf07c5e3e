//===- persist/MemCache.cpp - In-memory hot artifact tier ------*- C++ -*-===//

#include "persist/MemCache.h"

#include "support/Stats.h"

using namespace taj;
using namespace taj::persist;

std::optional<std::vector<uint8_t>> MemCache::get(const std::string &Key) {
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return std::nullopt;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  ++Hits;
  return It->second->Payload;
}

void MemCache::put(const std::string &Key, const uint8_t *Data, size_t Len) {
  if (MaxBytes != 0 && Len > MaxBytes)
    return; // would evict the whole tier for one entry
  auto It = Index.find(Key);
  if (It != Index.end()) {
    CurBytes -= It->second->Payload.size();
    It->second->Payload.assign(Data, Data + Len);
    CurBytes += Len;
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.push_front(Entry{Key, std::vector<uint8_t>(Data, Data + Len)});
    Index.emplace(Key, Lru.begin());
    CurBytes += Len;
  }
  ++Stores;
  evictToCap();
}

void MemCache::erase(const std::string &Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return;
  CurBytes -= It->second->Payload.size();
  Lru.erase(It->second);
  Index.erase(It);
}

void MemCache::evictToCap() {
  if (MaxBytes == 0)
    return;
  while (CurBytes > MaxBytes && !Lru.empty()) {
    Entry &Victim = Lru.back();
    CurBytes -= Victim.Payload.size();
    Index.erase(Victim.Key);
    Lru.pop_back();
    ++Evictions;
  }
}

void MemCache::exportStats(Stats &S) const {
  S.add("persist.mem_hit", Hits);
  S.add("persist.mem_miss", Misses);
  S.add("persist.mem_store", Stores);
  S.add("persist.mem_evict", Evictions);
}
