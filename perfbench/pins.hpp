#pragma once
// Simulated outputs at the default seed (kDefaultSeed), pinned bit for bit.
// A host-speed change must leave every one of them identical; a change that
// alters the modelled physics on purpose re-pins them from the values the
// failing gate prints.

#include "workloads.hpp"

namespace perfbench {

// toph_uniform_heavy: TopH, 256 cores, unscrambled, lambda=0.33, p_local=0.
inline const TrafficPin kTophUniformHeavyPin = {
    .point = {
        .offered = 0.33000000000000002,
        .generated = 0.32969628906249998,
        .accepted = 0.32966210937500001,
        .avg_latency = 6.8156210290602441,
        .p95_latency = 12.674600114253069,
        .max_latency = 43,
        .completed = 337609,
    },
    .counters = {
        .generated = 337609,
        .injected = 337637,
        .completed = 337609,
        .completed_in_window = 337574,
        .tile_req_traversals = 422194,
        .tile_resp_traversals = 422194,
        .dir_traversals = 415559,
        .remote_resp_traversals = 415559,
        .group_local_traversals = 197918,
        .butterfly_traversals = 1266400,
        .bank_accesses = 422194,
        .bank_stall_cycles = 1199,
        .final_cycle = 7000,
    },
};

// toph2_uniform_light: TopH2, 1024 cores, unscrambled, lambda=0.05, p_local=0.
inline const TrafficPin kToph2UniformLightPin = {
    .point = {
        .offered = 0.050000000000000003,
        .generated = 0.050119140625000003,
        .accepted = 0.050124755859375002,
        .avg_latency = 6.5190025719964151,
        .p95_latency = 8.6473943769383279,
        .max_latency = 13,
        .completed = 205288,
    },
    .counters = {
        .generated = 205288,
        .injected = 205290,
        .completed = 205288,
        .completed_in_window = 205311,
        .tile_req_traversals = 256495,
        .tile_resp_traversals = 256495,
        .dir_traversals = 255521,
        .remote_resp_traversals = 255521,
        .group_local_traversals = 30120,
        .butterfly_traversals = 1347350,
        .bank_accesses = 256495,
        .bank_stall_cycles = 0,
        .final_cycle = 7000,
    },
};

// tophs_kernels: TopH with scrambling; matmul 64, 2dconv 256 and dct, in
// run order.
inline const KernelPin kKernelPins[3] = {
    {.name = "matmul",
     .cycles = 5268,
     .stats = {
         .instret = 1048071,
         .cycles = 1308542,
         .stall_fetch = 96310,
         .stall_raw = 94977,
         .stall_rob = 0,
         .stall_port = 14900,
         .stall_ctrl = 54284,
         .alu = 486945,
         .mul = 262656,
         .div = 0,
         .branches = 75737,
         .loads_local = 24268,
         .loads_remote = 193536,
         .stores_local = 321,
         .stores_remote = 4095,
         .amos = 257,
         .dma_submits = 0,
         .resp_latency_sum = 1378509,
         .resp_count = 218061,
     }},
    {.name = "2dconv",
     .cycles = 4294,
     .stats = {
         .instret = 628571,
         .cycles = 1059120,
         .stall_fetch = 93676,
         .stall_raw = 299455,
         .stall_rob = 0,
         .stall_port = 1726,
         .stall_ctrl = 35692,
         .alu = 254017,
         .mul = 141980,
         .div = 0,
         .branches = 55537,
         .loads_local = 66224,
         .loads_remote = 94488,
         .stores_local = 15749,
         .stores_remote = 63,
         .amos = 257,
         .dma_submits = 0,
         .resp_latency_sum = 555281,
         .resp_count = 160969,
     }},
    {.name = "dct",
     .cycles = 11797,
     .stats = {
         .instret = 2163096,
         .cycles = 2979152,
         .stall_fetch = 109661,
         .stall_raw = 550706,
         .stall_rob = 0,
         .stall_port = 9728,
         .stall_ctrl = 145961,
         .alu = 1131099,
         .mul = 262144,
         .div = 0,
         .branches = 197651,
         .loads_local = 538857,
         .loads_remote = 0,
         .stores_local = 32769,
         .stores_remote = 63,
         .amos = 257,
         .dma_submits = 0,
         .resp_latency_sum = 848404,
         .resp_count = 539114,
     }},
};

}  // namespace perfbench
