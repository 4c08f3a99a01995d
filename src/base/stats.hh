/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, sampled distributions, and histograms, organized into
 * hierarchical groups that can be dumped as text or queried by tests
 * and benchmark harnesses.
 */

#ifndef SWEX_BASE_STATS_HH
#define SWEX_BASE_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace swex::stats
{

class Group;

/** Abstract named statistic registered with a Group. */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Append "fullName value # desc" style lines to @p out. */
    virtual void dump(std::string &out, const std::string &prefix)
        const = 0;

    /** Append this statistic's value as a JSON value (no key). */
    virtual void dumpJson(std::string &out) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single accumulating scalar value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { _value += 1; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void dump(std::string &out, const std::string &prefix)
        const override;
    void dumpJson(std::string &out) const override;
    void reset() override { _value = 0; }

  private:
    double _value = 0;
};

/** Mean/min/max/stddev over an arbitrary stream of samples. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minValue() const { return _count ? _min : 0.0; }
    double maxValue() const { return _count ? _max : 0.0; }
    double stddev() const;

    void dump(std::string &out, const std::string &prefix)
        const override;
    void dumpJson(std::string &out) const override;
    void reset() override;

  private:
    std::uint64_t _count = 0;
    double _sum = 0;
    double _sumSq = 0;
    double _min = 0;
    double _max = 0;
};

/**
 * Linear-bucket histogram over [0, buckets*bucketSize); out-of-range
 * samples clamp to the last bucket. Bucket geometry is set once via
 * init().
 */
class Histogram : public Stat
{
  public:
    using Stat::Stat;

    /** Configure @p nbuckets buckets of width @p width each. */
    void init(unsigned nbuckets, double width);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t bucketCount(unsigned i) const { return _buckets.at(i); }
    unsigned numBuckets() const { return _buckets.size(); }
    double bucketWidth() const { return _width; }
    std::uint64_t totalCount() const { return _total; }

    void dump(std::string &out, const std::string &prefix)
        const override;
    void dumpJson(std::string &out) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> _buckets;
    double _width = 1.0;
    std::uint64_t _total = 0;
};

/**
 * A named collection of statistics and child groups. Components own a
 * Group and register their stats into it; Machine::dumpStats() walks
 * the tree.
 */
class Group
{
  public:
    Group() = default;
    Group(Group *parent, std::string name);

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    void addStat(Stat *stat) { _stats.push_back(stat); }
    void addChild(Group *child) { _children.push_back(child); }

    const std::string &name() const { return _name; }

    /**
     * Dump the whole subtree with dotted-path prefixes. Numbers print
     * as an ostream at its default precision prints them (printf
     * "%g"). The text is built in one string and written at once.
     */
    void dump(std::ostream &os) const;

    /** Append the text dump to @p out. */
    void dump(std::string &out, const std::string &prefix = "") const;

    /**
     * Dump the whole subtree as one JSON object. Keys appear in
     * registration order (deterministic for a given machine
     * configuration), stats before child groups; scalars become
     * numbers (printf "%.17g", NaN and infinities as 0),
     * distributions and histograms become objects.
     */
    void dumpJson(std::ostream &os) const;

    /** Append the JSON dump to @p out. */
    void dumpJson(std::string &out) const;

    /** Reset every statistic in the subtree. */
    void reset();

    /** Find a statistic by dotted path relative to this group. */
    const Stat *find(const std::string &path) const;

  private:
    std::string _name;
    std::vector<Stat *> _stats;
    std::vector<Group *> _children;
};

} // namespace swex::stats

#endif // SWEX_BASE_STATS_HH
