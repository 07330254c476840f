/**
 * @file
 * Named scalar resource vectors (Section 3.3.3).
 *
 * Each worker type defines its own set of named scalar resource
 * dimensions and a capacity for each — e.g. a VCU worker exposes
 * fractional decode and encode cores (in millicores to avoid
 * fractions), DRAM bytes, fractional host CPU, and *synthetic*
 * resources such as a software-decode allowance used to indirectly
 * bound PCIe bandwidth.
 *
 * Layout: dimension names are interned once into a process-wide id
 * table; each vector stores a small sorted array of (id, amount)
 * pairs inline. At fleet scale every worker holds two of these and
 * every in-flight step a third, and the scheduler compares them on
 * every placement — the previous std::map<std::string, double>
 * backing cost ~1 KB of heap per vector and a string compare per
 * dimension per fits() call. The inline form is allocation-free,
 * copyable with memcpy, and merges id-wise.
 */

#ifndef WSVA_CLUSTER_RESOURCES_H
#define WSVA_CLUSTER_RESOURCES_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace wsva::cluster {

/** Canonical dimension names used by the VCU worker type. */
inline constexpr const char *kResDecodeMillicores = "dec_millicores";
inline constexpr const char *kResEncodeMillicores = "enc_millicores";
inline constexpr const char *kResDramBytes = "dram_bytes";
inline constexpr const char *kResHostCpuMillicores = "host_cpu_millicores";
/** Synthetic: software-decode allowance (bounds PCIe indirectly). */
inline constexpr const char *kResSwDecodeMillicores = "sw_dec_millicores";

/**
 * Interned ids of the canonical dimensions above, in the order the
 * table is seeded: resourceDimId(kResDecodeMillicores) ==
 * kDimDecodeMillicores, and so on. Per-step code sets dimensions by
 * these ids, which skips the string, the lock and the lookup.
 */
inline constexpr uint16_t kDimDecodeMillicores = 0;
inline constexpr uint16_t kDimEncodeMillicores = 1;
inline constexpr uint16_t kDimDramBytes = 2;
inline constexpr uint16_t kDimHostCpuMillicores = 3;
inline constexpr uint16_t kDimSwDecodeMillicores = 4;

/**
 * Intern @p name into the process-wide dimension table and return its
 * id. The five canonical VCU dimensions are pre-seeded with the
 * stable kDim* ids; further names get ids in first-intern order.
 * Thread-safe.
 */
uint16_t resourceDimId(const std::string &name);

/** Name for an interned dimension id (stable for process lifetime). */
const std::string &resourceDimName(uint16_t id);

/**
 * A sparse vector of named scalar resources. Canonical form: entries
 * sorted by dimension id, zero amounts erased — so equality is plain
 * memberwise comparison.
 */
class ResourceVector
{
  public:
    /** Distinct dimensions one vector can hold (VCU workers use 5). */
    static constexpr int kMaxDims = 8;

    ResourceVector() = default;
    ResourceVector(std::initializer_list<std::pair<const std::string,
                                                   double>> init)
    {
        for (const auto &[name, amount] : init)
            set(name, amount);
    }

    /** Amount for a dimension (0 when absent). */
    double get(const std::string &name) const;
    double get(uint16_t dim) const;

    /** Set a dimension (erases it when amount == 0). */
    void set(const std::string &name, double amount);
    void set(uint16_t dim, double amount);

    /** this += other. */
    void add(const ResourceVector &other);

    /** this -= other (may go negative; callers check fits() first). */
    void subtract(const ResourceVector &other);

    /**
     * True if @p need fits inside this vector: every dimension of
     * @p need is <= the amount here. Dimensions this vector does not
     * define are treated as zero capacity.
     */
    bool fits(const ResourceVector &need) const;

    /** True if all dimensions are >= 0 (sanity checks). */
    bool nonNegative() const;

    /** Fraction of @p capacity in use across its busiest dimension. */
    double maxUtilizationVs(const ResourceVector &capacity) const;

    bool empty() const { return size_ == 0; }

    /** Number of (non-zero) dimensions stored. */
    int size() const { return size_; }
    /** Dimension id of entry @p i (entries are sorted by id). */
    uint16_t dimId(int i) const { return ids_[i]; }
    /** Amount of entry @p i. */
    double amount(int i) const { return amounts_[i]; }

    /** Materialized (name, amount) pairs, sorted by name. */
    std::vector<std::pair<std::string, double>> dims() const;

    bool operator==(const ResourceVector &other) const;

  private:
    int find(uint16_t dim) const;
    void insertAt(int pos, uint16_t dim, double amount);
    void eraseAt(int pos);

    uint8_t size_ = 0;
    uint16_t ids_[kMaxDims] = {};
    double amounts_[kMaxDims] = {};
};

} // namespace wsva::cluster

#endif // WSVA_CLUSTER_RESOURCES_H
