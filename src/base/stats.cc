#include "base/stats.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "base/logging.hh"

namespace swex::stats
{

namespace
{

/** Append @p v as printf("%.*g", precision, v) prints it. */
void
appendNumber(std::string &out, double v, int precision)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, precision);
    out.append(buf, res.ptr);
}

void
appendNumber(std::string &out, std::uint64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Text-dump number: an ostream's default precision. */
void
textNumber(std::string &out, double v)
{
    appendNumber(out, v, 6);
}

/** JSON has no NaN/Inf; clamp them to 0 like the bench trajectory. */
void
jsonNumber(std::string &out, double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308) {
        out += '0';
        return;
    }
    appendNumber(out, v, 17);
}

bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void
jsonString(std::string &out, const std::string &s)
{
    out += '"';
    if (std::none_of(s.begin(), s.end(), needsEscape)) {
        out += s;   // the common case: append the name whole
        out += '"';
        return;
    }
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // anonymous namespace

Stat::Stat(Group *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
Scalar::dump(std::string &out, const std::string &prefix) const
{
    out += prefix;
    out += name();
    out += ' ';
    textNumber(out, _value);
    out += " # ";
    out += desc();
    out += '\n';
}

void
Scalar::dumpJson(std::string &out) const
{
    jsonNumber(out, _value);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    _count += count;
    _sum += v * count;
    _sumSq += v * v * count;
}

double
Distribution::stddev() const
{
    if (_count < 2)
        return 0.0;
    double m = mean();
    double var = (_sumSq - _count * m * m) / (_count - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

void
Distribution::dump(std::string &out, const std::string &prefix) const
{
    const std::string head = prefix + name();
    out += head;
    out += "::count ";
    appendNumber(out, _count);
    out += " # ";
    out += desc();
    out += '\n';
    const std::pair<const char *, double> moments[] = {
        {"::mean ", mean()},
        {"::min ", minValue()},
        {"::max ", maxValue()},
        {"::stddev ", stddev()},
    };
    for (const auto &[label, v] : moments) {
        out += head;
        out += label;
        textNumber(out, v);
        out += '\n';
    }
}

void
Distribution::dumpJson(std::string &out) const
{
    out += "{\"count\":";
    appendNumber(out, _count);
    out += ",\"mean\":";
    jsonNumber(out, mean());
    out += ",\"min\":";
    jsonNumber(out, minValue());
    out += ",\"max\":";
    jsonNumber(out, maxValue());
    out += ",\"stddev\":";
    jsonNumber(out, stddev());
    out += '}';
}

void
Distribution::reset()
{
    _count = 0;
    _sum = 0;
    _sumSq = 0;
    _min = 0;
    _max = 0;
}

void
Histogram::init(unsigned nbuckets, double width)
{
    SWEX_ASSERT(nbuckets > 0 && width > 0,
                "histogram %s: bad geometry", name().c_str());
    _buckets.assign(nbuckets, 0);
    _width = width;
    _total = 0;
}

void
Histogram::sample(double v, std::uint64_t count)
{
    SWEX_ASSERT(!_buckets.empty(), "histogram %s: not initialized",
                name().c_str());
    auto idx = static_cast<std::size_t>(v / _width);
    if (idx >= _buckets.size())
        idx = _buckets.size() - 1;
    _buckets[idx] += count;
    _total += count;
}

void
Histogram::dump(std::string &out, const std::string &prefix) const
{
    const std::string head = prefix + name();
    out += head;
    out += "::total ";
    appendNumber(out, _total);
    out += " # ";
    out += desc();
    out += '\n';
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        out += head;
        out += "::bucket";
        appendNumber(out, i);
        out += ' ';
        appendNumber(out, _buckets[i]);
        out += '\n';
    }
}

void
Histogram::dumpJson(std::string &out) const
{
    out += "{\"total\":";
    appendNumber(out, _total);
    out += ",\"width\":";
    jsonNumber(out, _width);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            out += ',';
        appendNumber(out, _buckets[i]);
    }
    out += "]}";
}

void
Histogram::reset()
{
    for (auto &b : _buckets)
        b = 0;
    _total = 0;
}

Group::Group(Group *parent, std::string name)
    : _name(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
Group::dump(std::ostream &os) const
{
    std::string out;
    dump(out);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void
Group::dump(std::string &out, const std::string &prefix) const
{
    std::string here = _name.empty() ? prefix : prefix + _name + ".";
    for (const auto *s : _stats)
        s->dump(out, here);
    for (const auto *c : _children)
        c->dump(out, here);
}

void
Group::dumpJson(std::ostream &os) const
{
    std::string out;
    dumpJson(out);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void
Group::dumpJson(std::string &out) const
{
    out += '{';
    bool first = true;
    for (const auto *s : _stats) {
        if (!first)
            out += ',';
        first = false;
        jsonString(out, s->name());
        out += ':';
        s->dumpJson(out);
    }
    for (const auto *c : _children) {
        if (!first)
            out += ',';
        first = false;
        jsonString(out, c->name());
        out += ':';
        c->dumpJson(out);
    }
    out += '}';
}

void
Group::reset()
{
    for (auto *s : _stats)
        s->reset();
    for (auto *c : _children)
        c->reset();
}

const Stat *
Group::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto *s : _stats)
            if (s->name() == path)
                return s;
        return nullptr;
    }
    std::string head = path.substr(0, dot);
    std::string tail = path.substr(dot + 1);
    for (const auto *c : _children)
        if (c->name() == head)
            return c->find(tail);
    return nullptr;
}

} // namespace swex::stats
