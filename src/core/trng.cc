#include "core/trng.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hh"
#include "common/parallel.hh"
#include "crypto/sha256.hh"

namespace quac::core
{

namespace
{

/**
 * Absorb @p nwords sense-amplifier words into a hasher as
 * little-endian bytes (the wire order of the data bus), without an
 * intermediate byte vector.
 */
void
shaUpdateWords(Sha256 &sha, const uint64_t *words, size_t nwords)
{
    if constexpr (std::endian::native == std::endian::little) {
        sha.update(reinterpret_cast<const uint8_t *>(words),
                   nwords * 8);
    } else {
        for (size_t w = 0; w < nwords; ++w) {
            uint8_t bytes[8];
            for (int b = 0; b < 8; ++b)
                bytes[b] = static_cast<uint8_t>(words[w] >> (8 * b));
            sha.update(bytes, sizeof(bytes));
        }
    }
}

/** Copy @p nwords words into @p dst as little-endian bytes. */
void
copyWordBytes(uint8_t *dst, const uint64_t *words, size_t nwords)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, words, nwords * 8);
    } else {
        for (size_t w = 0; w < nwords; ++w) {
            for (int b = 0; b < 8; ++b)
                *dst++ = static_cast<uint8_t>(words[w] >> (8 * b));
        }
    }
}

} // anonymous namespace

std::vector<uint8_t>
Trng::generate(size_t len)
{
    std::vector<uint8_t> out(len);
    fill(out.data(), len);
    return out;
}

Bitstream
Trng::generateBits(size_t nbits)
{
    std::vector<uint8_t> bytes = generate((nbits + 7) / 8);
    Bitstream bits;
    bits.appendBytes(bytes.data(), nbits);
    return bits;
}

std::array<uint8_t, 32>
Trng::random256()
{
    std::array<uint8_t, 32> out;
    fill(out.data(), out.size());
    return out;
}

QuacTrng::QuacTrng(dram::DramModule &module, QuacTrngConfig cfg)
    : module_(module), cfg_(std::move(cfg))
{
    const dram::Geometry &geom = module_.geometry();
    if (cfg_.banks.empty())
        fatal("QuacTrng needs at least one bank");
    for (size_t i = 0; i < cfg_.banks.size(); ++i) {
        if (cfg_.banks[i] >= geom.banks)
            fatal("bank %u out of range", cfg_.banks[i]);
        for (size_t j = i + 1; j < cfg_.banks.size(); ++j) {
            if (cfg_.banks[i] == cfg_.banks[j]) {
                fatal("bank %u listed twice; each plan must own its "
                      "bank's command stream",
                      cfg_.banks[i]);
            }
        }
    }
}

void
QuacTrng::setup()
{
    const dram::Geometry &geom = module_.geometry();
    CharacterizerConfig ccfg;
    ccfg.pattern = cfg_.pattern;
    ccfg.temperatureC = module_.temperature();
    ccfg.ageDays = module_.ageDays();
    ccfg.segmentStride = cfg_.characterizeStride;
    ccfg.threads = cfg_.threads;
    std::vector<BankProfile> profiles =
        Characterizer(module_).profileBanks(cfg_.banks, ccfg);
    plans_.clear();

    for (const BankProfile &profile : profiles) {
        BankPlan plan;
        plan.bank = profile.bank;
        plan.segment = profile.best.segment;
        plan.segmentEntropy = profile.best.entropy;

        // Reserve the two bulk-initialization rows in a neighbouring
        // segment of the same subarray (RowClone cannot cross
        // subarrays, and same-segment ACT pairs would QUAC).
        uint32_t base = geom.firstRowOfSegment(plan.segment);
        uint32_t neighbour;
        if (plan.segment > 0 &&
            geom.subarrayOfRow(base - 1) == geom.subarrayOfRow(base)) {
            neighbour = base - dram::Geometry::rowsPerSegment;
        } else {
            neighbour = base + dram::Geometry::rowsPerSegment;
            QUAC_ASSERT(geom.subarrayOfRow(neighbour) ==
                        geom.subarrayOfRow(base),
                        "no same-subarray neighbour for segment %u",
                        plan.segment);
        }
        plan.zeroRow = neighbour;
        plan.oneRow = neighbour + 1;

        // SHA input block column ranges at the current temperature.
        plan.ranges =
            sibRanges(profile.bestCacheBlocks, cfg_.sibEntropyTarget);
        if (plan.ranges.empty()) {
            fatal("segment %u of bank %u cannot supply %g bits of "
                  "entropy per block",
                  plan.segment, plan.bank, cfg_.sibEntropyTarget);
        }

        plans_.push_back(std::move(plan));
    }

    // Rebuild the per-plan command cursors, synchronized past every
    // command issued so far so per-bank gaps stay non-negative after
    // a recharacterization.
    for (const softmc::SoftMcHost &host : hosts_)
        epoch_ = std::max(epoch_, host.now());
    hosts_.clear();
    hosts_.reserve(plans_.size());
    scratch_.assign(plans_.size(),
                    std::vector<uint64_t>(geom.wordsPerRow()));
    planBytes_.clear();
    planOffsets_.clear();

    size_t offset = 0;
    const size_t block_bytes = geom.cacheBlockBits / 8;
    for (const BankPlan &plan : plans_) {
        hosts_.emplace_back(module_);
        softmc::SoftMcHost &host = hosts_.back();
        host.wait(epoch_);

        // Fill the reserved rows once; RowClone re-reads them every
        // iteration without consuming data-bus bandwidth.
        host.writeRowFill(plan.bank, plan.zeroRow, false);
        host.writeRowFill(plan.bank, plan.oneRow, true);

        size_t bytes = 0;
        if (cfg_.useSha) {
            bytes = plan.ranges.size() * 32;
        } else {
            for (const ColumnRange &range : plan.ranges) {
                bytes += (range.endColumn - range.beginColumn) *
                         block_bytes;
            }
        }
        planBytes_.push_back(bytes);
        planOffsets_.push_back(offset);
        offset += bytes;
    }
    ready_ = true;
}

void
QuacTrng::recharacterize()
{
    setup();
}

void
QuacTrng::applyColumnRanges(
    const std::vector<std::vector<ColumnRange>> &per_plan)
{
    if (!ready_)
        setup();
    if (per_plan.size() != plans_.size()) {
        fatal("applyColumnRanges: %zu range sets for %zu plans",
              per_plan.size(), plans_.size());
    }
    const dram::Geometry &geom = module_.geometry();
    const size_t block_bytes = geom.cacheBlockBits / 8;
    for (size_t i = 0; i < per_plan.size(); ++i) {
        if (per_plan[i].empty())
            fatal("applyColumnRanges: plan %zu got no ranges", i);
        for (const ColumnRange &range : per_plan[i]) {
            if (range.beginColumn >= range.endColumn ||
                range.endColumn > geom.cacheBlocksPerRow()) {
                fatal("applyColumnRanges: plan %zu range [%u, %u) "
                      "outside the %u-block row",
                      i, range.beginColumn, range.endColumn,
                      geom.cacheBlocksPerRow());
            }
        }
    }
    size_t offset = 0;
    for (size_t i = 0; i < plans_.size(); ++i) {
        plans_[i].ranges = per_plan[i];
        size_t bytes = 0;
        if (cfg_.useSha) {
            bytes = per_plan[i].size() * 32;
        } else {
            for (const ColumnRange &range : per_plan[i]) {
                bytes += (range.endColumn - range.beginColumn) *
                         block_bytes;
            }
        }
        planBytes_[i] = bytes;
        planOffsets_[i] = offset;
        offset += bytes;
    }
    // Drop any partial iteration generated under the old calibration:
    // it spans the switch, and its geometry no longer matches.
    buffer_.clear();
    bufferHead_ = 0;
}

size_t
QuacTrng::bitsPerIteration() const
{
    size_t sib = 0;
    for (const BankPlan &plan : plans_)
        sib += plan.ranges.size();
    return sib * 256;
}

size_t
QuacTrng::bytesPerIteration() const
{
    size_t bytes = 0;
    for (size_t plan_bytes : planBytes_)
        bytes += plan_bytes;
    return bytes;
}

size_t
QuacTrng::preferredChunkBytes()
{
    if (!ready_)
        setup();
    return bytesPerIteration();
}

void
QuacTrng::initSegment(const BankPlan &plan, softmc::SoftMcHost &host)
{
    const dram::Geometry &geom = module_.geometry();
    uint32_t base = geom.firstRowOfSegment(plan.segment);
    for (uint32_t i = 0; i < dram::Geometry::rowsPerSegment; ++i) {
        bool one = (cfg_.pattern >> i) & 1;
        host.rowCloneCopy(plan.bank, one ? plan.oneRow : plan.zeroRow,
                          base + i);
    }
}

size_t
QuacTrng::readPlanRaw(size_t plan_index)
{
    const BankPlan &plan = plans_[plan_index];
    softmc::SoftMcHost &host = hosts_[plan_index];
    const size_t block_words = module_.geometry().cacheBlockBits / 64;

    initSegment(plan, host);
    host.quac(plan.bank, plan.segment);

    // Every SIB range lands back to back in the scratch row (their
    // total width never exceeds one row); hashing happens after the
    // bank is closed, which leaves the command stream unchanged (the
    // cursor only advances on commands and waits, never on hashing).
    uint64_t *words = scratch_[plan_index].data();
    size_t offset = 0;
    for (const ColumnRange &range : plan.ranges) {
        size_t nwords =
            (range.endColumn - range.beginColumn) * block_words;
        host.readColumns(plan.bank, range.beginColumn, range.endColumn,
                         words + offset);
        offset += nwords;
    }
    host.preObeyed(plan.bank);
    return offset;
}

void
QuacTrng::hashPlanInto(size_t plan_index, uint8_t *out)
{
    const BankPlan &plan = plans_[plan_index];
    const size_t block_words = module_.geometry().cacheBlockBits / 64;
    const uint64_t *words = scratch_[plan_index].data();

    if constexpr (std::endian::native == std::endian::little) {
        // The scratch words are already in wire (little-endian byte)
        // order: hash the plan's SIBs as one interleaved batch.
        std::array<Sha256::Job, 8> jobs;
        std::array<Sha256::Digest, 8> digests;
        size_t offset = 0;
        size_t done = 0;
        while (done < plan.ranges.size()) {
            size_t batch =
                std::min(jobs.size(), plan.ranges.size() - done);
            for (size_t j = 0; j < batch; ++j) {
                const ColumnRange &range = plan.ranges[done + j];
                size_t nwords =
                    (range.endColumn - range.beginColumn) *
                    block_words;
                jobs[j] = {reinterpret_cast<const uint8_t *>(words) +
                               offset * 8,
                           nwords * 8};
                offset += nwords;
            }
            Sha256::hashBatch(jobs.data(), batch, digests.data());
            for (size_t j = 0; j < batch; ++j) {
                std::memcpy(out, digests[j].data(),
                            digests[j].size());
                out += digests[j].size();
            }
            done += batch;
        }
    } else {
        for (const ColumnRange &range : plan.ranges) {
            size_t nwords =
                (range.endColumn - range.beginColumn) * block_words;
            Sha256 sha;
            shaUpdateWords(sha, words, nwords);
            words += nwords;
            Sha256::Digest digest = sha.finish();
            std::memcpy(out, digest.data(), digest.size());
            out += digest.size();
        }
    }
}

void
QuacTrng::executePlan(size_t plan_index, uint8_t *out)
{
    size_t nwords = readPlanRaw(plan_index);
    if (cfg_.useSha) {
        hashPlanInto(plan_index, out);
    } else {
        copyWordBytes(out, scratch_[plan_index].data(), nwords);
    }
}

void
QuacTrng::runIterationsInto(uint8_t *out, size_t count)
{
    const size_t iter_bytes = bytesPerIteration();
    if (cfg_.parallelBanks && plans_.size() > 1) {
        parallelFor(0, plans_.size(), [&](size_t i) {
            for (size_t k = 0; k < count; ++k)
                executePlan(i, out + k * iter_bytes + planOffsets_[i]);
        });
    } else if (cfg_.useSha && plans_.size() > 1 &&
               std::endian::native == std::endian::little) {
        // Serial pipeline: drive every bank's commands first, then
        // hash ALL the iteration's SIBs as one batch, so the
        // interleaved message schedule gets the four banks' blocks
        // as its four lanes.
        const size_t block_words =
            module_.geometry().cacheBlockBits / 64;
        std::vector<Sha256::Job> jobs;
        std::vector<Sha256::Digest> digests;
        std::vector<uint8_t *> dests;
        for (size_t k = 0; k < count; ++k) {
            jobs.clear();
            dests.clear();
            for (size_t i = 0; i < plans_.size(); ++i) {
                readPlanRaw(i);
                const uint8_t *bytes =
                    reinterpret_cast<const uint8_t *>(
                        scratch_[i].data());
                uint8_t *dst =
                    out + k * iter_bytes + planOffsets_[i];
                for (const ColumnRange &range : plans_[i].ranges) {
                    size_t nbytes = (range.endColumn -
                                     range.beginColumn) *
                                    block_words * 8;
                    jobs.push_back({bytes, nbytes});
                    dests.push_back(dst);
                    bytes += nbytes;
                    dst += 32;
                }
            }
            digests.resize(jobs.size());
            Sha256::hashBatch(jobs.data(), jobs.size(),
                              digests.data());
            for (size_t j = 0; j < jobs.size(); ++j)
                std::memcpy(dests[j], digests[j].data(), 32);
        }
    } else {
        for (size_t k = 0; k < count; ++k) {
            for (size_t i = 0; i < plans_.size(); ++i)
                executePlan(i, out + k * iter_bytes + planOffsets_[i]);
        }
    }
    iterations_ += count;
}

void
QuacTrng::runIteration()
{
    buffer_.resize(bytesPerIteration());
    bufferHead_ = 0;
    runIterationsInto(buffer_.data(), 1);
}

void
QuacTrng::fill(uint8_t *out, size_t len)
{
    if (!ready_)
        setup();
    const size_t iter_bytes = bytesPerIteration();
    QUAC_ASSERT(iter_bytes > 0, "setup produced no output ranges");

    size_t produced = 0;
    while (produced < len) {
        size_t available = buffer_.size() - bufferHead_;
        if (available > 0) {
            size_t take = std::min(available, len - produced);
            std::memcpy(out + produced, buffer_.data() + bufferHead_,
                        take);
            bufferHead_ += take;
            produced += take;
        } else if (len - produced >= iter_bytes) {
            // Whole iterations go straight into the caller's buffer,
            // skipping the staging copy entirely; batching them into
            // one parallel region amortizes thread startup.
            size_t whole = (len - produced) / iter_bytes;
            runIterationsInto(out + produced, whole);
            produced += whole * iter_bytes;
        } else {
            runIteration();
        }
    }
}

Bitstream
QuacTrng::rawIteration(size_t plan_index)
{
    if (!ready_)
        setup();
    QUAC_ASSERT(plan_index < plans_.size(), "plan %zu", plan_index);
    const BankPlan &plan = plans_[plan_index];
    softmc::SoftMcHost &host = hosts_[plan_index];
    const dram::Geometry &geom = module_.geometry();

    initSegment(plan, host);
    host.quac(plan.bank, plan.segment);

    uint64_t *words = scratch_[plan_index].data();
    host.readColumns(plan.bank, 0, geom.cacheBlocksPerRow(), words);
    host.preObeyed(plan.bank);
    ++iterations_;

    Bitstream raw;
    raw.appendWords(words,
                    static_cast<size_t>(geom.cacheBlocksPerRow()) *
                        geom.cacheBlockBits);
    return raw;
}

} // namespace quac::core
