"""The authorization-key mailer (§VI, Listing 3).

"We developed a tool to automate the generation and delivery of the keys
... creates an email message based on a predefined template ... then
emails the message to the students."  Mail is delivered into a recorded
:class:`Outbox` (the offline substitute for SMTP) so tests and instructors
can inspect exactly what every student received.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from string import Template
from typing import Dict, List, Optional

from repro.auth.keys import KeyStore
from repro.auth.roster import RosterEntry

#: The body of Listing 3, verbatim in structure.
#: Subject line of every credential email.
SUBJECT = "ECE408 project: your RAI credentials"

AUTH_EMAIL_TEMPLATE = Template("""\
Hello $first_name $last_name,

For the Applied Parallel Programming project,
we will not be using WebGPU. The RAI submission
requires authentication tokens to be present
in your $$HOME/.rai.profile (Linux/OSX) or
%HOME%/.rai.profile (Windows) file.

The following are your tokens:

RAI_USER_NAME='$username'
RAI_ACCESS_KEY='$access_key'
RAI_SECRET_KEY='$secret_key'

The RAI client can be downloaded from the project
website; pick the build matching your operating
system and architecture.
""")


@dataclass(frozen=True)
class EmailMessage:
    to: str
    subject: str
    body: str


@dataclass
class Outbox:
    """A recording mail transport."""

    messages: List[EmailMessage] = field(default_factory=list)

    def send(self, message: EmailMessage) -> None:
        if "@" not in message.to:
            raise ValueError(f"invalid recipient address {message.to!r}")
        self.messages.append(message)

    def __len__(self) -> int:
        return len(self.messages)


class KeyMailer:
    """Generates keys from a roster and emails them out."""

    def __init__(self, keystore: KeyStore):
        self.keystore = keystore
        self.outbox = Outbox()

    def send_keys(self, roster: List[RosterEntry],
                  teams: Optional[Dict[str, str]] = None) -> List[EmailMessage]:
        """Issue a credential per roster entry and email it.

        ``teams`` optionally maps ``user_id → team name`` so credentials
        are linked to the competition team.
        """
        sent = []
        for entry in roster:
            team = (teams or {}).get(entry.user_id)
            cred = self.keystore.issue(entry.user_id, team=team)
            body = AUTH_EMAIL_TEMPLATE.substitute(
                first_name=entry.first_name,
                last_name=entry.last_name,
                username=cred.username,
                access_key=cred.access_key,
                secret_key=cred.secret_key,
            )
            message = EmailMessage(to=entry.email, subject=SUBJECT, body=body)
            self.outbox.send(message)
            sent.append(message)
        return sent
