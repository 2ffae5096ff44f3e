/**
 * @file
 * Opcode definitions for the msim ISA.
 *
 * The ISA is of secondary importance to the multiscalar paradigm
 * (paper section 2.2); this one is a clean MIPS-flavored RISC with a
 * handful of multiscalar-specific additions (the release instruction;
 * forward and stop tag bits live beside the instruction, see
 * program/tag bits).
 */

#ifndef MSIM_ISA_OPCODES_HH
#define MSIM_ISA_OPCODES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/logging.hh"

namespace msim::isa {

/** Every opcode in the ISA. The enumerator value is the binary code. */
enum class Opcode : std::uint8_t {
    // Integer ALU, register forms.
    kAdd, kAddu, kSub, kSubu, kAnd, kOr, kXor, kNor,
    kSllv, kSrlv, kSrav, kSlt, kSltu,
    // Integer ALU, immediate forms.
    kAddi, kAddiu, kAndi, kOri, kXori, kSlti, kSltiu, kLui,
    // Shifts by immediate amount.
    kSll, kSrl, kSra,
    // Complex integer.
    kMul, kDiv, kRem,
    // Loads and stores.
    kLw, kLh, kLhu, kLb, kLbu, kSw, kSh, kSb,
    kLdc1, kSdc1, kLwc1, kSwc1,
    // Control transfer.
    kBeq, kBne, kBlez, kBgtz, kBltz, kBgez,
    kJ, kJal, kJr, kJalr,
    // Floating point.
    kAddS, kSubS, kMulS, kDivS,
    kAddD, kSubD, kMulD, kDivD,
    kMovD, kNegD, kAbsD,
    kCvtDW, kCvtWD,
    kCLtD, kCLeD, kCEqD,
    // Multiscalar specific.
    kRelease,
    // System.
    kSyscall, kNop,

    kNumOpcodes,
};

/** Operand format of an instruction. */
enum class Format : std::uint8_t {
    kR3,    //!< op rd, rs, rt
    kR2,    //!< op rd, rs
    kRI,    //!< op rd, rs, imm
    kSh,    //!< op rd, rs, shamt
    kLui,   //!< op rd, imm
    kLS,    //!< op rt, imm(rs)
    kBr2,   //!< op rs, rt, label
    kBr1,   //!< op rs, label
    kJ,     //!< op target
    kJr,    //!< op rs
    kJalr,  //!< op rd, rs
    kRel,   //!< release r1[, r2]
    kNone,  //!< no operands
};

/** Instruction class; selects functional unit and latency (Table 1). */
enum class InstClass : std::uint8_t {
    kIntAlu,    //!< simple integer FU, 1 cycle
    kIntMult,   //!< complex integer FU, 4 cycles
    kIntDiv,    //!< complex integer FU, 12 cycles
    kLoad,      //!< memory FU; latency from the cache model
    kStore,     //!< memory FU, 1 cycle address generation
    kBranch,    //!< branch FU, 1 cycle
    kFpAddSP,   //!< FP FU, 2 cycles
    kFpMulSP,   //!< FP FU, 4 cycles
    kFpDivSP,   //!< FP FU, 12 cycles
    kFpAddDP,   //!< FP FU, 2 cycles
    kFpMulDP,   //!< FP FU, 5 cycles
    kFpDivDP,   //!< FP FU, 18 cycles
    kFpMove,    //!< FP FU, 1 cycle (moves, compares)
    kRelease,   //!< simple integer FU, 1 cycle
    kSyscall,   //!< executes at the head unit only
    kNop,
};

/** The functional units inside a processing unit (paper section 5.1). */
enum class FuKind : std::uint8_t {
    kSimpleInt,
    kComplexInt,
    kFp,
    kBranch,
    kMem,
    kNumFuKinds,
};

/** Static description of one opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format format;
    InstClass cls;
};

/**
 * The opcode table, indexed by Opcode value. A compile-time constant
 * so that opInfo() and the class helpers below fold into their
 * callers on the per-cycle path.
 */
inline constexpr auto kOpTable = [] {
    using enum Format;
    using enum InstClass;
    return std::to_array<OpInfo>({
        {"add", kR3, kIntAlu},
        {"addu", kR3, kIntAlu},
        {"sub", kR3, kIntAlu},
        {"subu", kR3, kIntAlu},
        {"and", kR3, kIntAlu},
        {"or", kR3, kIntAlu},
        {"xor", kR3, kIntAlu},
        {"nor", kR3, kIntAlu},
        {"sllv", kR3, kIntAlu},
        {"srlv", kR3, kIntAlu},
        {"srav", kR3, kIntAlu},
        {"slt", kR3, kIntAlu},
        {"sltu", kR3, kIntAlu},
        {"addi", kRI, kIntAlu},
        {"addiu", kRI, kIntAlu},
        {"andi", kRI, kIntAlu},
        {"ori", kRI, kIntAlu},
        {"xori", kRI, kIntAlu},
        {"slti", kRI, kIntAlu},
        {"sltiu", kRI, kIntAlu},
        {"lui", kLui, kIntAlu},
        {"sll", kSh, kIntAlu},
        {"srl", kSh, kIntAlu},
        {"sra", kSh, kIntAlu},
        {"mul", kR3, kIntMult},
        {"div", kR3, kIntDiv},
        {"rem", kR3, kIntDiv},
        {"lw", kLS, kLoad},
        {"lh", kLS, kLoad},
        {"lhu", kLS, kLoad},
        {"lb", kLS, kLoad},
        {"lbu", kLS, kLoad},
        {"sw", kLS, kStore},
        {"sh", kLS, kStore},
        {"sb", kLS, kStore},
        {"ldc1", kLS, kLoad},
        {"sdc1", kLS, kStore},
        {"lwc1", kLS, kLoad},
        {"swc1", kLS, kStore},
        {"beq", kBr2, kBranch},
        {"bne", kBr2, kBranch},
        {"blez", kBr1, kBranch},
        {"bgtz", kBr1, kBranch},
        {"bltz", kBr1, kBranch},
        {"bgez", kBr1, kBranch},
        {"j", Format::kJ, kBranch},
        {"jal", Format::kJ, kBranch},
        {"jr", kJr, kBranch},
        {"jalr", Format::kJalr, kBranch},
        {"add.s", kR3, kFpAddSP},
        {"sub.s", kR3, kFpAddSP},
        {"mul.s", kR3, kFpMulSP},
        {"div.s", kR3, kFpDivSP},
        {"add.d", kR3, kFpAddDP},
        {"sub.d", kR3, kFpAddDP},
        {"mul.d", kR3, kFpMulDP},
        {"div.d", kR3, kFpDivDP},
        {"mov.d", kR2, kFpMove},
        {"neg.d", kR2, kFpMove},
        {"abs.d", kR2, kFpMove},
        {"cvt.d.w", kR2, kFpMove},
        {"cvt.w.d", kR2, kFpMove},
        {"c.lt.d", kR3, kFpMove},
        {"c.le.d", kR3, kFpMove},
        {"c.eq.d", kR3, kFpMove},
        {"release", kRel, kRelease},
        {"syscall", kNone, kSyscall},
        {"nop", kNone, InstClass::kNop},
    });
}();

static_assert(kOpTable.size() == size_t(Opcode::kNumOpcodes),
              "kOpTable needs exactly one row per Opcode, in enum order");

/** @return the static description of @p op. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = size_t(op);
    panicIf(idx >= kOpTable.size(), "opInfo: bad opcode ", idx);
    return kOpTable[idx];
}

/** @return the opcode for a mnemonic, if it names a real instruction. */
std::optional<Opcode> parseMnemonic(std::string_view mnemonic);

/** @return the functional unit an instruction class executes on. */
inline FuKind
fuKind(InstClass cls)
{
    using enum InstClass;
    switch (cls) {
      case kIntAlu:
      case kRelease:
      case kSyscall:
      case kNop:
        return FuKind::kSimpleInt;
      case kIntMult:
      case kIntDiv:
        return FuKind::kComplexInt;
      case kLoad:
      case kStore:
        return FuKind::kMem;
      case kBranch:
        return FuKind::kBranch;
      default:
        return FuKind::kFp;
    }
}

/**
 * @return the execution latency in cycles of an instruction class,
 * per Table 1 of the paper. Loads return the 1-cycle address
 * generation component; the memory access itself is timed by the
 * cache hierarchy.
 */
inline unsigned
execLatency(InstClass cls)
{
    using enum InstClass;
    switch (cls) {
      case kIntAlu:
      case kRelease:
      case kSyscall:
      case kNop:
        return 1;
      case kIntMult:
        return 4;
      case kIntDiv:
        return 12;
      case kLoad:
        return 1;  // address generation; cache supplies access time
      case kStore:
        return 1;
      case kBranch:
        return 1;
      case kFpAddSP:
        return 2;
      case kFpMulSP:
        return 4;
      case kFpDivSP:
        return 12;
      case kFpAddDP:
        return 2;
      case kFpMulDP:
        return 5;
      case kFpDivDP:
        return 18;
      case kFpMove:
        return 1;
    }
    panic("execLatency: bad class");
}

/** @return true for conditional branches and jumps. */
inline bool
isControl(InstClass cls)
{
    return cls == InstClass::kBranch;
}

/** @return true for loads and stores. */
inline bool
isMem(InstClass cls)
{
    return cls == InstClass::kLoad || cls == InstClass::kStore;
}

} // namespace msim::isa

#endif // MSIM_ISA_OPCODES_HH
