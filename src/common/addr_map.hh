/**
 * @file
 * Open-addressed hash map for small, bounded, hot lookup structures
 * (MSHR files, in-flight walk tables) keyed by 64-bit addresses or
 * packed address keys.
 *
 * std::unordered_map costs a heap node per insert and a pointer chase
 * per lookup — measurable in the cache hot path where an MSHR probe
 * happens on every miss and every fill. This table keeps entries in a
 * flat power-of-two slot array (linear probing, Fibonacci hashing) with
 * an explicit occupancy flag (key 0 is a valid address), erases with
 * backward-shift deletion so no tombstones accumulate, and grows only
 * when load reaches 1/2 — for an MSHR file sized at construction it
 * never reallocates in steady state.
 *
 * Iteration order is slot order, which is hash-dependent; callers must
 * not let it influence simulated behavior (the invariant checker only
 * validates entries, so this holds today).
 */

#ifndef TACSIM_COMMON_ADDR_MAP_HH
#define TACSIM_COMMON_ADDR_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tacsim {

template <typename V>
class AddrMap
{
  public:
    /** @p expected is the steady-state entry bound (e.g. the MSHR
     *  count); capacity is sized so that many entries stay under the
     *  1/2 load limit without growing. */
    explicit AddrMap(std::size_t expected = 8)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        slots_.resize(cap);
    }

    V *
    find(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Insert a new entry; @p key must not already be present. */
    V &
    insert(std::uint64_t key, V value)
    {
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        ++size_;
        return place(key, std::move(value));
    }

    /** Remove @p key if present; returns whether an entry was erased. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        if (i == kNone)
            return false;
        eraseAt(i);
        return true;
    }

    /** Move @p key's value into @p out and remove the entry, with one
     *  probe; returns false (leaving @p out untouched) if absent. */
    bool
    take(std::uint64_t key, V &out)
    {
        const std::size_t i = slotOf(key);
        if (i == kNone)
            return false;
        out = std::move(slots_[i].value);
        eraseAt(i);
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        for (Slot &s : slots_) {
            s.used = false;
            s.value = V();
        }
        size_ = 0;
    }

    /** Visit every entry as f(key, value). Slot order — see file note. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                f(s.key, s.value);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Slot holding @p key, or kNone. */
    std::size_t
    slotOf(std::uint64_t key) const
    {
        for (std::size_t i = home(key);; i = next(i)) {
            if (!slots_[i].used)
                return kNone;
            if (slots_[i].key == key)
                return i;
        }
    }

    void
    eraseAt(std::size_t i)
    {
        // Backward-shift deletion: pull every follower whose home slot
        // lies cyclically outside (i, j] into the hole so probe chains
        // stay contiguous and no tombstones are needed.
        std::size_t j = i;
        for (;;) {
            j = next(j);
            if (!slots_[j].used)
                break;
            const std::size_t h = home(slots_[j].key);
            const bool hInHole = i <= j ? (i < h && h <= j)
                                        : (i < h || h <= j);
            if (hInHole)
                continue;
            slots_[i].key = slots_[j].key;
            slots_[i].value = std::move(slots_[j].value);
            i = j;
        }
        slots_[i].used = false;
        slots_[i].value = V();
        --size_;
    }

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: the multiply spreads the (block-aligned,
        // low-zero) key bits into the top, which the shift keeps.
        const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(
            h >> (64 - std::countr_zero(slots_.size())));
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    V &
    place(std::uint64_t key, V &&value)
    {
        std::size_t i = home(key);
        while (slots_[i].used) {
            TACSIM_DCHECK(slots_[i].key != key &&
                          "AddrMap::insert of an existing key");
            i = next(i);
        }
        Slot &s = slots_[i];
        s.key = key;
        s.value = std::move(value);
        s.used = true;
        return s.value;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(old.size() * 2);
        for (Slot &s : old)
            if (s.used)
                place(s.key, std::move(s.value));
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace tacsim

#endif // TACSIM_COMMON_ADDR_MAP_HH
