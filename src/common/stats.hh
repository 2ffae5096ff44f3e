/**
 * @file
 * A small statistics package: named scalar counters and simple
 * distributions grouped per component, with text formatting. Every
 * timing component in the simulator registers its counters here so the
 * benchmark harness can dump a complete machine profile.
 *
 * Components declare each scalar once as a Counter member and bump it
 * as an integer; the string-keyed StatGroup::add() is for cold paths
 * and tests.
 */

#ifndef MSIM_COMMON_STATS_HH
#define MSIM_COMMON_STATS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>

namespace msim {

/** A group of named statistics belonging to one simulator component. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Add @p delta to the named scalar counter (creating it at 0). */
    void
    add(const std::string &stat, std::uint64_t delta = 1)
    {
        scalars_[stat] += delta;
    }

    /** Set the named scalar counter to an absolute value. */
    void
    set(const std::string &stat, std::uint64_t value)
    {
        scalars_[stat] = value;
    }

    /** @return the value of a scalar counter (0 when absent). */
    std::uint64_t
    get(const std::string &stat) const
    {
        auto it = scalars_.find(stat);
        return it == scalars_.end() ? 0 : it->second;
    }

    /** @return this group's name. */
    const std::string &name() const { return name_; }

    /** @return all scalar counters in name order. */
    const std::map<std::string, std::uint64_t> &
    scalars() const
    {
        return scalars_;
    }

    /** Add @p delta to bucket @p bucket of distribution @p dist. */
    void
    addToDist(const std::string &dist, const std::string &bucket,
              std::uint64_t delta = 1)
    {
        dists_[dist][bucket] += delta;
    }

    /** @return the value of one distribution bucket (0 when absent). */
    std::uint64_t
    getDist(const std::string &dist, const std::string &bucket) const
    {
        auto it = dists_.find(dist);
        if (it == dists_.end())
            return 0;
        auto jt = it->second.find(bucket);
        return jt == it->second.end() ? 0 : jt->second;
    }

    /** @return all distributions in name order. */
    const std::map<std::string, std::map<std::string, std::uint64_t>> &
    dists() const
    {
        return dists_;
    }

    /**
     * Reset every counter to zero in place: the set of registered
     * stat names survives so post-reset reports keep their rows.
     */
    void
    reset()
    {
        for (auto &[stat, value] : scalars_)
            value = 0;
        for (auto &[dist, buckets] : dists_) {
            for (auto &[bucket, value] : buckets)
                value = 0;
        }
    }

    /** Render "group.stat value" lines (then distribution buckets). */
    std::string format() const;

  private:
    friend class Counter;

    std::string name_;
    /** Node-based: a Counter keeps a pointer to its row's value. */
    std::map<std::string, std::uint64_t> scalars_;
    std::map<std::string, std::map<std::string, std::uint64_t>> dists_;
};

/**
 * A scalar counter of one StatGroup, declared once by the component
 * that owns it and bumped without a name lookup.
 *
 * The row "group.name" comes into being on the first add(), even
 * add(0), exactly as StatGroup::add(name) would create it; a counter
 * that was never bumped prints nothing. From then on the counter
 * holds a pointer to the row's value, which StatGroup::reset() zeros
 * in place and get(name) reads.
 */
class Counter
{
  public:
    /** @p name must outlive the counter (normally a literal). */
    Counter(StatGroup &group, const char *name)
        : group_(&group), name_(name)
    {
    }

    /** Add @p delta, creating the row on first use. */
    void
    add(std::uint64_t delta = 1)
    {
        if (!value_) [[unlikely]]
            bind();
        *value_ += delta;
    }

    /** @return the stat's name within its group. */
    const char *name() const { return name_; }

  private:
    /** Create the row (out of line: once per counter). */
    void bind();

    StatGroup *group_;
    const char *name_;
    std::uint64_t *value_ = nullptr;
};

/** A registry of stat groups owned by a processor instance. */
class StatRegistry
{
  public:
    /** Get or create the group with the given name. */
    StatGroup &group(const std::string &name);

    /** @return all groups in creation order. */
    const std::deque<StatGroup> &groups() const { return groups_; }

    /** Render every group. */
    std::string format() const;

    /** Reset every counter in every group. */
    void reset();

  private:
    /** Deque: references returned by group() must remain stable. */
    std::deque<StatGroup> groups_;
};

} // namespace msim

#endif // MSIM_COMMON_STATS_HH
