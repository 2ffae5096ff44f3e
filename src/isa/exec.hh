/**
 * @file
 * Pure functional semantics of the msim ISA.
 *
 * These helpers compute instruction results from operand values with
 * no timing or machine state, and are shared by the scalar pipeline,
 * the multiscalar processing units, and the unit tests (which check
 * them directly against reference computations).
 */

#ifndef MSIM_ISA_EXEC_HH
#define MSIM_ISA_EXEC_HH

#include <cstdint>
#include <cstring>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace msim::isa {

/**
 * A register value. Integer registers keep their 32-bit value in the
 * low word; floating point registers keep a double bit pattern.
 */
struct RegValue
{
    std::uint64_t raw = 0;

    static RegValue
    fromWord(Word w)
    {
        return RegValue{w};
    }

    static RegValue
    fromDouble(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return RegValue{bits};
    }

    Word asWord() const { return Word(raw & 0xffffffffu); }

    std::int32_t asSWord() const { return std::int32_t(asWord()); }

    double
    asDouble() const
    {
        double d;
        std::memcpy(&d, &raw, sizeof(d));
        return d;
    }

    bool operator==(const RegValue &) const = default;
};

/** Outcome of evaluating a control-transfer instruction. */
struct BranchResult
{
    bool taken = false;   //!< true when control leaves the fall-through
    Addr target = 0;      //!< target address when taken
};

/**
 * Destination register of an instruction as the pipelines see it:
 * $v0 for syscalls, none for stores, inst.rd otherwise. This is the
 * single operand model shared by the processing units and the static
 * annotation verifier (src/analysis/) — the two must agree or the
 * dynamic write-set oracle would diverge from the static may-write
 * sets.
 */
inline RegIndex
destOf(const Instruction &inst)
{
    if (inst.cls() == InstClass::kSyscall)
        return intReg(kRegV0);
    if (inst.cls() == InstClass::kStore)
        return kNoReg;
    return inst.rd;
}

/**
 * Collect the source registers of an instruction into @p out (at
 * most 4). Syscalls read $v0/$a0/$a1; releases read the registers
 * they release; everything else reads rs/rt when present.
 */
inline unsigned
sourcesOf(const Instruction &inst, RegIndex out[4])
{
    unsigned n = 0;
    switch (inst.cls()) {
      case InstClass::kSyscall:
        out[n++] = intReg(kRegV0);
        out[n++] = intReg(kRegA0);
        out[n++] = intReg(kRegA1);
        return n;
      case InstClass::kRelease:
        if (inst.rs != kNoReg)
            out[n++] = inst.rs;
        if (inst.rel2 != kNoReg)
            out[n++] = inst.rel2;
        return n;
      default:
        if (inst.rs != kNoReg)
            out[n++] = inst.rs;
        if (inst.rt != kNoReg)
            out[n++] = inst.rt;
        return n;
    }
}

/**
 * Evaluate a register-writing computation (ALU, FP, lui, link).
 *
 * @param inst The instruction (non-memory, non-release).
 * @param rs_val Value of the rs operand (ignored when absent).
 * @param rt_val Value of the rt operand (ignored when absent).
 * @param pc The instruction's own address (for jal/jalr links).
 * @return the value to write to inst.rd.
 */
RegValue evalAlu(const Instruction &inst, RegValue rs_val, RegValue rt_val,
                 Addr pc);

/**
 * Evaluate a branch or jump.
 *
 * @param inst The control instruction.
 * @param rs_val Value of rs (register target for jr/jalr).
 * @param rt_val Value of rt (for beq/bne).
 * @return taken/target outcome.
 */
BranchResult evalBranch(const Instruction &inst, RegValue rs_val,
                        RegValue rt_val);

/** @return the effective address of a load or store. */
Addr memAddr(const Instruction &inst, RegValue rs_val);

/** @return the access size in bytes of a load or store opcode. */
unsigned memSize(Opcode op);

/**
 * Convert raw little-endian memory bytes into a load result
 * (sign/zero extension, float-to-double widening for lwc1).
 */
RegValue loadResult(Opcode op, std::uint64_t raw_bytes);

/**
 * Convert a register value into the raw bytes a store writes
 * (double-to-float narrowing for swc1).
 */
std::uint64_t storeBytes(Opcode op, RegValue value);

} // namespace msim::isa

#endif // MSIM_ISA_EXEC_HH
