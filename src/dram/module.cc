#include "dram/module.hh"

#include "common/error.hh"

namespace quac::dram
{

DramModule::DramModule(ModuleSpec spec)
    : spec_(std::move(spec)),
      variation_(spec_.geometry, spec_.calibration, spec_.seed,
                 spec_.entropyScale, spec_.waveScale,
                 spec_.agingDrift30d)
{
    // Segments must not straddle a subarray: the sense-amp offsets of
    // a segment are those of one subarray's SA stripe.
    if (spec_.geometry.rowsPerSubarray % Geometry::rowsPerSegment != 0)
        fatal("rowsPerSubarray %u is not a multiple of the %u-row "
              "segment",
              spec_.geometry.rowsPerSubarray, Geometry::rowsPerSegment);
    ctx_.geom = &spec_.geometry;
    ctx_.cal = &spec_.calibration;
    ctx_.variation = &variation_;
    ctx_.temperatureC = spec_.temperatureC;
    ctx_.ageDays = spec_.ageDays;
    ctx_.fastSense = spec_.fastSense;

    banks_.reserve(spec_.geometry.banks);
    uint64_t sm = spec_.seed ^ 0x5bd1e995b1e6a5c3ULL;
    for (uint32_t i = 0; i < spec_.geometry.banks; ++i)
        banks_.emplace_back(&ctx_, i, splitmix64(sm));
}

Bank &
DramModule::bank(uint32_t index)
{
    if (index >= banks_.size())
        fatal("bank index %u out of range", index);
    return banks_[index];
}

const Bank &
DramModule::bank(uint32_t index) const
{
    if (index >= banks_.size())
        fatal("bank index %u out of range", index);
    return banks_[index];
}

void
DramModule::setTemperature(double temperature_c)
{
    if (temperature_c < -40.0 || temperature_c > 125.0)
        fatal("temperature %.1f degC outside operating range",
              temperature_c);
    ctx_.temperatureC = temperature_c;
}

void
DramModule::setAgeDays(double age_days)
{
    if (age_days < 0.0)
        fatal("negative device age");
    ctx_.ageDays = age_days;
}

void
DramModule::act(uint32_t bank_idx, uint32_t row, double t)
{
    bank(bank_idx).activate(row, t);
}

void
DramModule::pre(uint32_t bank_idx, double t)
{
    bank(bank_idx).precharge(t);
}

std::vector<uint64_t>
DramModule::readBlock(uint32_t bank_idx, uint32_t column, double t)
{
    return bank(bank_idx).read(column, t);
}

void
DramModule::readBlockInto(uint32_t bank_idx, uint32_t column,
                          uint64_t *dst, double t)
{
    bank(bank_idx).readInto(column, dst, t);
}

void
DramModule::writeBlock(uint32_t bank_idx, uint32_t column,
                       const std::vector<uint64_t> &data, double t)
{
    bank(bank_idx).write(column, data, t);
}

void
DramModule::issue(const Command &cmd)
{
    switch (cmd.type) {
      case CommandType::ACT:
        act(cmd.bank, cmd.row, cmd.time);
        break;
      case CommandType::PRE:
        pre(cmd.bank, cmd.time);
        break;
      case CommandType::RD:
        readBlock(cmd.bank, cmd.column, cmd.time);
        break;
      case CommandType::WR:
        fatal("WR via issue() needs data; use writeBlock()");
    }
}

} // namespace quac::dram
