#include "cluster/fleet_health.h"

#include "common/logging.h"

namespace wsva::cluster {

const char *
workerHealthStateName(WorkerHealthState state)
{
    switch (state) {
      case WorkerHealthState::Healthy: return "healthy";
      case WorkerHealthState::Degraded: return "degraded";
      case WorkerHealthState::Quarantined: return "quarantined";
      case WorkerHealthState::InRepair: return "in_repair";
    }
    return "unknown";
}

WorkerHealthState
classifyWorker(bool host_in_repair, bool refused, bool vcu_disabled,
               bool silent_fault)
{
    if (host_in_repair)
        return WorkerHealthState::InRepair;
    if (refused)
        return WorkerHealthState::Quarantined;
    if (vcu_disabled || silent_fault)
        return WorkerHealthState::Degraded;
    return WorkerHealthState::Healthy;
}

void
HealthCounts::add(WorkerHealthState state)
{
    switch (state) {
      case WorkerHealthState::Healthy: ++healthy; break;
      case WorkerHealthState::Degraded: ++degraded; break;
      case WorkerHealthState::Quarantined: ++quarantined; break;
      case WorkerHealthState::InRepair: ++in_repair; break;
    }
}

void
HealthCounts::merge(const HealthCounts &other)
{
    healthy += other.healthy;
    degraded += other.degraded;
    quarantined += other.quarantined;
    in_repair += other.in_repair;
}

namespace {

void
appendCountsJson(std::string &out, const HealthCounts &c)
{
    out += strformat("{\"healthy\": %llu, \"degraded\": %llu, "
                     "\"quarantined\": %llu, \"in_repair\": %llu, "
                     "\"total\": %llu}",
                     static_cast<unsigned long long>(c.healthy),
                     static_cast<unsigned long long>(c.degraded),
                     static_cast<unsigned long long>(c.quarantined),
                     static_cast<unsigned long long>(c.in_repair),
                     static_cast<unsigned long long>(c.total()));
}

void
appendNodeJson(std::string &out, const NodeHealth &node)
{
    out += strformat("{\"id\": %d, \"counts\": ", node.id);
    appendCountsJson(out, node.counts);
    out += strformat(", \"encoder_utilization\": %.6g, "
                     "\"retry_rate\": %.6g, \"retries\": %llu, "
                     "\"completions\": %llu}",
                     node.encoder_utilization, node.retry_rate,
                     static_cast<unsigned long long>(node.retries),
                     static_cast<unsigned long long>(node.completions));
}

/** One fixed-width hierarchy row for toText(). */
std::string
nodeRow(const char *label, const HealthCounts &c, double util,
        double retry_rate)
{
    return strformat("  %-12s %4llu ok %4llu deg %4llu quar "
                     "%4llu rep | util %5.1f%% | retry %5.2f%%\n",
                     label, static_cast<unsigned long long>(c.healthy),
                     static_cast<unsigned long long>(c.degraded),
                     static_cast<unsigned long long>(c.quarantined),
                     static_cast<unsigned long long>(c.in_repair),
                     util * 100.0, retry_rate * 100.0);
}

} // namespace

std::string
FleetHealthSnapshot::toText() const
{
    std::string out = strformat(
        "fleet status @ sim t=%.1fs (tick %llu)\n\n", sim_time,
        static_cast<unsigned long long>(tick));

    // The alert banner first: the single bit an operator pages on.
    if (slo_alert_active) {
        out += strformat("*** SLO BURN ALERT ACTIVE: burn rate %.0f%%, "
                         "window p99 %.1fs ***\n\n",
                         slo_burn_rate * 100.0, slo_window_p99);
    } else {
        out += strformat("slo ok: burn rate %.0f%%, window p99 %.1fs, "
                         "oldest queued %.1fs\n\n",
                         slo_burn_rate * 100.0, slo_window_p99,
                         slo_queue_age);
    }

    out += nodeRow("cluster", cluster, encoder_utilization, retry_rate);
    for (const auto &rack : racks) {
        out += nodeRow(strformat("rack %d", rack.id).c_str(),
                       rack.counts, rack.encoder_utilization,
                       rack.retry_rate);
        for (const auto &host : hosts) {
            if (hosts_per_rack > 0 && host.id / hosts_per_rack != rack.id)
                continue;
            out += nodeRow(strformat("  host %d", host.id).c_str(),
                           host.counts, host.encoder_utilization,
                           host.retry_rate);
        }
    }
    out += strformat("\nbacklog %llu, in-flight %llu, shed %llu\n",
                     static_cast<unsigned long long>(backlog),
                     static_cast<unsigned long long>(in_flight),
                     static_cast<unsigned long long>(shed));
    if (deadline_tracked > 0) {
        out += strformat("live: %llu deadline completions, windowed "
                         "miss rate %.2f%%\n",
                         static_cast<unsigned long long>(
                             deadline_tracked),
                         deadline_miss_rate * 100.0);
    }
    return out;
}

std::string
FleetHealthSnapshot::toJson() const
{
    std::string out = strformat(
        "{\"sim_time\": %.6g, \"tick\": %llu, \"vcus_per_host\": %d, "
        "\"hosts_per_rack\": %d, \"counts\": ",
        sim_time, static_cast<unsigned long long>(tick), vcus_per_host,
        hosts_per_rack);
    appendCountsJson(out, cluster);
    out += strformat(
        ", \"encoder_utilization\": %.6g, \"retry_rate\": %.6g, "
        "\"retries\": %llu, \"completions\": %llu, "
        "\"backlog\": %llu, \"in_flight\": %llu, \"shed\": %llu, "
        "\"slo\": {\"alert_active\": %s, \"burn_rate\": %.6g, "
        "\"window_p99\": %.6g, \"queue_age\": %.6g, "
        "\"deadline_tracked\": %llu, \"deadline_miss_rate\": %.6g}, "
        "\"racks\": [",
        encoder_utilization, retry_rate,
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(completions),
        static_cast<unsigned long long>(backlog),
        static_cast<unsigned long long>(in_flight),
        static_cast<unsigned long long>(shed),
        slo_alert_active ? "true" : "false", slo_burn_rate,
        slo_window_p99, slo_queue_age,
        static_cast<unsigned long long>(deadline_tracked),
        deadline_miss_rate);
    for (size_t i = 0; i < racks.size(); ++i) {
        if (i > 0)
            out += ", ";
        appendNodeJson(out, racks[i]);
    }
    out += "], \"hosts\": [";
    for (size_t i = 0; i < hosts.size(); ++i) {
        if (i > 0)
            out += ", ";
        appendNodeJson(out, hosts[i]);
    }
    out += "]}";
    return out;
}

void
FleetHealthSnapshot::exportGauges(wsva::MetricsRegistry &registry) const
{
    registry.setGauge("fleet.healthy", static_cast<double>(cluster.healthy));
    registry.setGauge("fleet.degraded",
                      static_cast<double>(cluster.degraded));
    registry.setGauge("fleet.quarantined",
                      static_cast<double>(cluster.quarantined));
    registry.setGauge("fleet.in_repair",
                      static_cast<double>(cluster.in_repair));
    registry.setGauge("fleet.encoder_utilization", encoder_utilization);
    registry.setGauge("fleet.retry_rate", retry_rate);
    registry.setGauge("fleet.shed", static_cast<double>(shed));
    if (deadline_tracked > 0)
        registry.setGauge("fleet.deadline_miss_rate", deadline_miss_rate);
    for (const auto &rack : racks) {
        const std::string prefix = strformat("fleet.rack%d.", rack.id);
        registry.setGauge(prefix + "healthy",
                          static_cast<double>(rack.counts.healthy));
        registry.setGauge(prefix + "utilization",
                          rack.encoder_utilization);
        registry.setGauge(prefix + "retry_rate", rack.retry_rate);
    }
}

} // namespace wsva::cluster
