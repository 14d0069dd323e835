/// Table I analogue: the benchmark system configuration. The paper lists
/// its two testbeds (Ryzen 5950X + RTX 3090 / dual Xeon 9242); this prints
/// the host this reproduction actually runs on. The GPU testbed has no
/// counterpart: the CUDA variants are not reproduced (see DESIGN.md).

#include <cstdio>
#include <iostream>

#include "util/sysinfo.hpp"
#include "util/table.hpp"

int main() {
  using namespace scod;

  std::printf("\n=== Table I: benchmark system configuration ===\n\n");

  const SystemInfo info = query_system_info();
  TextTable host({"System property", "Value"});
  host.add_row({"Operating system", info.os});
  host.add_row({"CPU name", info.cpu_name.empty() ? "(unknown)" : info.cpu_name});
  host.add_row({"CPU logical processors", TextTable::integer(
                    static_cast<long long>(info.logical_cpus))});
  host.add_row({"CPU clock (current)", TextTable::num(info.cpu_mhz, 0) + " MHz"});
  host.add_row({"System memory", TextTable::num(info.memory_gib, 1) + " GiB"});
  host.print(std::cout);

  std::printf(
      "\nPaper reference systems: AMD Ryzen 9 5950X (16C/32T, 64 GB) + NVIDIA\n"
      "RTX 3090 (24 GB) on Windows 10; 2x Intel Xeon Platinum 9242 (2x48C,\n"
      "384 GB) on RedHat 8.6.\n");
  return 0;
}
