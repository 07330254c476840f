#include "cluster/resources.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"

namespace wsva::cluster {

namespace {

/**
 * Process-wide dimension-name intern table. A deque keeps name
 * storage stable across growth so resourceDimName() can hand out
 * references without holding the lock.
 */
struct DimTable
{
    std::mutex mutex;
    std::unordered_map<std::string, uint16_t> ids;
    std::deque<std::string> names;

    DimTable()
    {
        // Seeded in kDim* order, so each name gets its constant's id.
        for (const char *name :
             {kResDecodeMillicores, kResEncodeMillicores, kResDramBytes,
              kResHostCpuMillicores, kResSwDecodeMillicores}) {
            ids.emplace(name, static_cast<uint16_t>(names.size()));
            names.emplace_back(name);
        }
    }
};

DimTable &
dimTable()
{
    static DimTable table;
    return table;
}

} // namespace

uint16_t
resourceDimId(const std::string &name)
{
    DimTable &t = dimTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    auto [it, inserted] =
        t.ids.try_emplace(name, static_cast<uint16_t>(t.names.size()));
    if (inserted) {
        WSVA_ASSERT(t.names.size() < 65535,
                    "resource dimension table overflow");
        t.names.emplace_back(name);
    }
    return it->second;
}

const std::string &
resourceDimName(uint16_t id)
{
    DimTable &t = dimTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    WSVA_ASSERT(id < t.names.size(), "unknown resource dimension id %u",
                static_cast<unsigned>(id));
    return t.names[id];
}

int
ResourceVector::find(uint16_t dim) const
{
    for (int i = 0; i < size_; ++i) {
        if (ids_[i] == dim)
            return i;
        if (ids_[i] > dim)
            return -1;
    }
    return -1;
}

void
ResourceVector::insertAt(int pos, uint16_t dim, double amount)
{
    WSVA_ASSERT(size_ < kMaxDims,
                "resource vector overflow (> %d dimensions)", kMaxDims);
    for (int i = size_; i > pos; --i) {
        ids_[i] = ids_[i - 1];
        amounts_[i] = amounts_[i - 1];
    }
    ids_[pos] = dim;
    amounts_[pos] = amount;
    ++size_;
}

void
ResourceVector::eraseAt(int pos)
{
    for (int i = pos; i + 1 < size_; ++i) {
        ids_[i] = ids_[i + 1];
        amounts_[i] = amounts_[i + 1];
    }
    --size_;
}

double
ResourceVector::get(uint16_t dim) const
{
    const int pos = find(dim);
    return pos < 0 ? 0.0 : amounts_[pos];
}

double
ResourceVector::get(const std::string &name) const
{
    return get(resourceDimId(name));
}

void
ResourceVector::set(uint16_t dim, double amount)
{
    int pos = 0;
    while (pos < size_ && ids_[pos] < dim)
        ++pos;
    const bool present = pos < size_ && ids_[pos] == dim;
    if (amount == 0.0) {
        if (present)
            eraseAt(pos);
        return;
    }
    if (present)
        amounts_[pos] = amount;
    else
        insertAt(pos, dim, amount);
}

void
ResourceVector::set(const std::string &name, double amount)
{
    set(resourceDimId(name), amount);
}

void
ResourceVector::add(const ResourceVector &other)
{
    for (int i = 0; i < other.size_; ++i)
        set(other.ids_[i], get(other.ids_[i]) + other.amounts_[i]);
}

void
ResourceVector::subtract(const ResourceVector &other)
{
    for (int i = 0; i < other.size_; ++i)
        set(other.ids_[i], get(other.ids_[i]) - other.amounts_[i]);
}

bool
ResourceVector::fits(const ResourceVector &need) const
{
    // Merge walk over two id-sorted arrays: no lookups, no strings.
    int j = 0;
    for (int i = 0; i < need.size_; ++i) {
        while (j < size_ && ids_[j] < need.ids_[i])
            ++j;
        const double have =
            (j < size_ && ids_[j] == need.ids_[i]) ? amounts_[j] : 0.0;
        if (need.amounts_[i] > have + 1e-9)
            return false;
    }
    return true;
}

bool
ResourceVector::nonNegative() const
{
    for (int i = 0; i < size_; ++i) {
        if (amounts_[i] < -1e-9)
            return false;
    }
    return true;
}

double
ResourceVector::maxUtilizationVs(const ResourceVector &capacity) const
{
    double worst = 0.0;
    for (int i = 0; i < capacity.size_; ++i) {
        if (capacity.amounts_[i] > 0.0) {
            worst = std::max(worst,
                             get(capacity.ids_[i]) / capacity.amounts_[i]);
        }
    }
    return worst;
}

std::vector<std::pair<std::string, double>>
ResourceVector::dims() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(size_);
    for (int i = 0; i < size_; ++i)
        out.emplace_back(resourceDimName(ids_[i]), amounts_[i]);
    std::sort(out.begin(), out.end());
    return out;
}

bool
ResourceVector::operator==(const ResourceVector &other) const
{
    if (size_ != other.size_)
        return false;
    for (int i = 0; i < size_; ++i) {
        if (ids_[i] != other.ids_[i] || amounts_[i] != other.amounts_[i])
            return false;
    }
    return true;
}

} // namespace wsva::cluster
