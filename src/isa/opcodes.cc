#include "isa/opcodes.hh"

namespace msim::isa {

std::optional<Opcode>
parseMnemonic(std::string_view mnemonic)
{
    for (size_t i = 0; i < kOpTable.size(); ++i) {
        if (mnemonic == kOpTable[i].mnemonic)
            return Opcode(i);
    }
    return std::nullopt;
}

} // namespace msim::isa
