#include "common/stats.hh"

#include <sstream>

namespace msim {

std::string
StatGroup::format() const
{
    std::ostringstream os;
    for (const auto &[stat, value] : scalars_)
        os << name_ << "." << stat << " " << value << "\n";
    for (const auto &[dist, buckets] : dists_) {
        for (const auto &[bucket, value] : buckets)
            os << name_ << "." << dist << "." << bucket << " " << value
               << "\n";
    }
    return os.str();
}

void
Counter::bind()
{
    value_ = &group_->scalars_[name_];
}

StatGroup &
StatRegistry::group(const std::string &name)
{
    for (auto &g : groups_) {
        if (g.name() == name)
            return g;
    }
    groups_.emplace_back(name);
    return groups_.back();
}

std::string
StatRegistry::format() const
{
    std::ostringstream os;
    for (const auto &g : groups_)
        os << g.format();
    return os.str();
}

void
StatRegistry::reset()
{
    for (auto &g : groups_)
        g.reset();
}

} // namespace msim
