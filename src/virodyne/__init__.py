"""virodyne: airborne transmission as a communication channel, plus
sequence-level mutation analytics.

Subpackages cover the physical layer (concentration fields, mobility, an
agent-based SI epidemic), the receiver side (OOK detection metrics, source
localization), and the genetic layer (alignment entropy profiles, Kimura
substitution matrices, mutation direction ranking), tied together by a CLI.
"""

__version__ = "0.1.0"
