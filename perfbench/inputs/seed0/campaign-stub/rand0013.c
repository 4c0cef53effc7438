#include <stdio.h>

int main(void) {
    int b = 0;
    if (b) {
        b = b;
    }
    b = b;
    {
        int c;
        c = b - c;
        printf("%d", b);
    }
    return b;
}
